#pragma omp parallel for
for (c0 = 0; c0 <= floord(N - 1, 16); c0++) { // tile loop (size 16)
  for (c1 = 0; c1 <= floord(N - 1, 16); c1++) { // tile loop (size 16)
    for (c2 = 0; c2 <= floord(N - 1, 16); c2++) { // tile loop (size 16)
      for (c3 = max(0, 16*c0); c3 <= min(N - 1, 16*c0 + 15); c3++) {
        for (c4 = max(0, 16*c1); c4 <= min(N - 1, 16*c1 + 15); c4++) {
          for (c5 = max(0, 16*c2); c5 <= min(N - 1, 16*c2 + 15); c5++) {
            S0(c3, c5, c4);
          }
        }
      }
    }
  }
}

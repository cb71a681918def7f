#pragma omp parallel for
for (c0 = 0; c0 <= floord(N - 1, 32); c0++) { // tile loop (size 32)
  for (c1 = 0; c1 <= floord(N - 1, 32); c1++) { // tile loop (size 32)
    for (c2 = 0; c2 <= floord(N - 1, 32); c2++) { // tile loop (size 32)
      for (c3 = max(0, 32*c0); c3 <= min(N - 1, 32*c0 + 31); c3++) {
        for (c4 = max(0, 32*c1); c4 <= min(N - 1, 32*c1 + 31); c4++) {
          for (c5 = max(0, 32*c2); c5 <= min(N - 1, 32*c2 + 31); c5++) {
            S0(c3, c4, c5);
          }
        }
      }
    }
  }
}

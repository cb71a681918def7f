#pragma omp parallel for
for (c0 = 0; c0 <= floord(N - 1, 64); c0++) { // tile loop (size 64)
  for (c1 = 0; c1 <= floord(N - 1, 64); c1++) { // tile loop (size 64)
    for (c2 = max(0, 64*c0); c2 <= min(N - 1, 64*c0 + 63); c2++) {
      for (c3 = max(0, 64*c1); c3 <= min(N - 1, 64*c1 + 63); c3++) {
        S0(c2, c3);
        S1(c2, c3);
        S2(c2, c3);
        S3(c2, c3);
        S4(c2, c3);
        S5(c2, c3);
        S6(c2, c3);
        S7(c2, c3);
      }
    }
  }
}

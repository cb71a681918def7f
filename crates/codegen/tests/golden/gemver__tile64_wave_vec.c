for (c0 = 0; c0 <= floord(N - 1, 64); c0++) { // tile loop (size 64)
  for (c1 = max(0, 64*c0); c1 <= min(N - 1, 64*c0 + 63); c1++) {
    for (c2 = 0; c2 <= floord(N - 1, 64); c2++) { // tile loop (size 64)
      for (c3 = max(0, 64*c2); c3 <= min(N - 1, 64*c2 + 63); c3++) {
        S0(c3, c1);
        S1(c1, c3);
      }
    }
    S2(c1);
    for (c2 = 0; c2 <= floord(N - 1, 64); c2++) { // tile loop (size 64)
      for (c3 = max(0, 64*c2); c3 <= min(N - 1, 64*c2 + 63); c3++) {
        S3(c3, c1);
      }
    }
  }
}

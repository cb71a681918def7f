for (c0 = 0; c0 <= floord(3*T + 2*N - 7, 32); c0++) { // wavefront
  #pragma omp parallel for
  for (c1 = ceild(32*c0 - 2*T - N + 4, 32); c1 <= floord(T + N - 3, 32); c1++) { // tile loop (size 32)
    for (c2 = max(ceild(32*c0 - 32*c1 - T + 1, 32), ceild(32*c1 - N - 28, 32)); c2 <= min(floord(T + N - 3, 32), floord(32*c0 - 32*c1 + N + 29, 64), floord(32*c1 + N + 28, 32), floord(32*c0 - 64*c1 + N + 29, 32)); c2++) { // tile loop (size 32)
      for (c3 = max(0, 32*c0 - 32*c1 - 32*c2, 32*c2 - N + 2, 32*c1 - N + 2); c3 <= min(T - 1, 32*c0 - 32*c1 - 32*c2 + 31, 32*c2 + 30, 32*c1 + 30); c3++) {
        for (c4 = max(c3 + 1, 32*c1); c4 <= min(c3 + N - 2, 32*c1 + 31); c4++) {
          for (c5 = max(c3 + 1, 32*c2); c5 <= min(c3 + N - 2, 32*c2 + 31); c5++) {
            if (c0 == floord(c3, 32) + floord(c4, 32) + floord(c5, 32)) S0(c3, -c3 + c4, -c3 + c5);
          }
        }
      }
    }
  }
}

for (c0 = -2; c0 <= floord(3*T + 2*N - 7, 64); c0++) { // wavefront
  #pragma omp parallel for
  for (c1 = max(ceild(64*c0 - 2*T - N - 59, 64), ceild(64*c0 - N - 185, 192)); c1 <= min(floord(T + N - 3, 64), floord(32*c0 + N + 92, 96)); c1++) { // tile loop (size 64)
    for (c2 = max(ceild(64*c1 - N - 60, 64), ceild(64*c0 - 2*T - N - 59, 64), ceild(64*c0 - N - 185, 192), ceild(64*c0 - 64*c1 - T - 125, 64)); c2 <= min(floord(T + N - 3, 64), floord(64*c1 + N + 60, 64), floord(32*c0 + N + 92, 96), floord(64*c0 - 64*c1 + N + 187, 128), floord(64*c0 - 128*c1 + N + 187, 64)); c2++) { // tile loop (size 64)
      for (c3 = max(0, 64*c2 - N + 2, 64*c1 - N + 2, ceild(64*c0 - 2*N + 4, 3), ceild(64*c0 - 64*c1 - N - 61, 2), ceild(64*c0 - 64*c2 - N - 61, 2), 64*c0 - 64*c1 - 64*c2 - 126); c3 <= min(T - 1, 64*c2 + 62, 64*c1 + 62, floord(64*c0 + 187, 3), 32*c0 - 32*c2 + 94, 32*c0 - 32*c1 + 94, 64*c0 - 64*c1 - 64*c2 + 189); c3++) {
        for (c4 = max(c3 + 1, 64*c1, 64*c0 - 2*c3 - N + 2, 64*c0 - 64*c2 - c3 - 63); c4 <= min(c3 + N - 2, 64*c1 + 63, 64*c0 - 2*c3 + 188, 64*c0 - 64*c2 - c3 + 189); c4++) {
          for (c5 = max(c3 + 1, 64*c2, 64*c0 - c3 - c4); c5 <= min(c3 + N - 2, 64*c2 + 63, 64*c0 - c3 - c4 + 189); c5++) {
            if (c0 == floord(c3, 64) + floord(c4, 64) + floord(c5, 64)) S0(c3, -c3 + c4, -c3 + c5);
          }
        }
      }
    }
  }
}

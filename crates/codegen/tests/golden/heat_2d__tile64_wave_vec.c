for (c0 = 0; c0 <= floord(3*T + 2*N - 7, 64); c0++) { // wavefront
  #pragma omp parallel for
  for (c1 = ceild(64*c0 - 2*T - N + 4, 64); c1 <= floord(T + N - 3, 64); c1++) { // tile loop (size 64)
    for (c2 = max(ceild(64*c0 - 64*c1 - T + 1, 64), ceild(64*c1 - N - 60, 64)); c2 <= min(floord(T + N - 3, 64), floord(64*c0 - 64*c1 + N + 61, 128), floord(64*c1 + N + 60, 64), floord(64*c0 - 128*c1 + N + 61, 64)); c2++) { // tile loop (size 64)
      for (c3 = max(0, 64*c0 - 64*c1 - 64*c2, 64*c2 - N + 2, 64*c1 - N + 2); c3 <= min(T - 1, 64*c0 - 64*c1 - 64*c2 + 63, 64*c2 + 62, 64*c1 + 62); c3++) {
        for (c4 = max(c3 + 1, 64*c1); c4 <= min(c3 + N - 2, 64*c1 + 63); c4++) {
          for (c5 = max(c3 + 1, 64*c2); c5 <= min(c3 + N - 2, 64*c2 + 63); c5++) {
            if (c0 == floord(c3, 64) + floord(c4, 64) + floord(c5, 64)) S0(c3, -c3 + c4, -c3 + c5);
          }
        }
      }
    }
  }
}

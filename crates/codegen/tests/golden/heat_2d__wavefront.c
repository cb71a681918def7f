for (c0 = -2; c0 <= floord(3*T + 2*N - 7, 32); c0++) { // wavefront
  #pragma omp parallel for
  for (c1 = max(ceild(32*c0 - 2*T - N - 27, 32), ceild(32*c0 - N - 89, 96)); c1 <= min(floord(T + N - 3, 32), floord(16*c0 + N + 44, 48)); c1++) { // tile loop (size 32)
    for (c2 = max(ceild(32*c1 - N - 28, 32), ceild(32*c0 - 2*T - N - 27, 32), ceild(32*c0 - N - 89, 96), ceild(32*c0 - 32*c1 - T - 61, 32)); c2 <= min(floord(T + N - 3, 32), floord(32*c1 + N + 28, 32), floord(16*c0 + N + 44, 48), floord(32*c0 - 32*c1 + N + 91, 64), floord(32*c0 - 64*c1 + N + 91, 32)); c2++) { // tile loop (size 32)
      for (c3 = max(0, 32*c2 - N + 2, 32*c1 - N + 2, ceild(32*c0 - 2*N + 4, 3), ceild(32*c0 - 32*c1 - N - 29, 2), ceild(32*c0 - 32*c2 - N - 29, 2), 32*c0 - 32*c1 - 32*c2 - 62); c3 <= min(T - 1, 32*c2 + 30, 32*c1 + 30, floord(32*c0 + 91, 3), 16*c0 - 16*c2 + 46, 16*c0 - 16*c1 + 46, 32*c0 - 32*c1 - 32*c2 + 93); c3++) {
        for (c4 = max(c3 + 1, 32*c1, 32*c0 - 2*c3 - N + 2, 32*c0 - 32*c2 - c3 - 31); c4 <= min(c3 + N - 2, 32*c1 + 31, 32*c0 - 2*c3 + 92, 32*c0 - 32*c2 - c3 + 93); c4++) {
          for (c5 = max(c3 + 1, 32*c2, 32*c0 - c3 - c4); c5 <= min(c3 + N - 2, 32*c2 + 31, 32*c0 - c3 - c4 + 93); c5++) {
            if (c0 == floord(c3, 32) + floord(c4, 32) + floord(c5, 32)) S0(c3, -c3 + c4, -c3 + c5);
          }
        }
      }
    }
  }
}

for (c0 = 0; c0 <= floord(2*T + N - 4, 32); c0++) { // wavefront
  #pragma omp parallel for
  for (c1 = ceild(32*c0 - T + 1, 32); c1 <= min(floord(T + N - 3, 32), floord(32*c0 + N + 29, 64)); c1++) { // tile loop (size 32)
    for (c2 = max(0, 32*c0 - 32*c1, 32*c1 - N + 2); c2 <= min(T - 1, 32*c0 - 32*c1 + 31, 32*c1 + 30); c2++) {
      for (c3 = max(c2 + 1, 32*c1); c3 <= min(c2 + N - 2, 32*c1 + 31); c3++) {
        if (c0 == floord(c2, 32) + floord(c3, 32)) S0(c2, -c2 + c3);
      }
    }
  }
}

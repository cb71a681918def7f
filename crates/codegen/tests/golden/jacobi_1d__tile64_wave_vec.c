for (c0 = 0; c0 <= floord(2*T + N - 4, 64); c0++) { // wavefront
  #pragma omp parallel for
  for (c1 = ceild(64*c0 - T + 1, 64); c1 <= min(floord(T + N - 3, 64), floord(64*c0 + N + 61, 128)); c1++) { // tile loop (size 64)
    for (c2 = max(0, 64*c0 - 64*c1, 64*c1 - N + 2); c2 <= min(T - 1, 64*c0 - 64*c1 + 63, 64*c1 + 62); c2++) {
      for (c3 = max(c2 + 1, 64*c1); c3 <= min(c2 + N - 2, 64*c1 + 63); c3++) {
        if (c0 == floord(c2, 64) + floord(c3, 64)) S0(c2, -c2 + c3);
      }
    }
  }
}

for (c0 = 0; c0 <= N - 1; c0++) {
  #pragma omp parallel for
  for (c1 = 0; c1 <= N - 1; c1++) {
    for (c2 = 0; c2 <= N - 1; c2++) {
      S0(c1, c2, c0);
    }
  }
}

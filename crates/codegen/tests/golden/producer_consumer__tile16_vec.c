#pragma omp parallel for
for (c0 = 0; c0 <= floord(N - 1, 16); c0++) { // tile loop (size 16)
  for (c1 = max(0, 16*c0); c1 <= min(N - 1, 16*c0 + 15); c1++) {
    S0(c1);
    S1(c1);
  }
}

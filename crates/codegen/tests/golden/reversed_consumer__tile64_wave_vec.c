#pragma omp parallel for
for (c0 = 0; c0 <= floord(N - 1, 64); c0++) { // tile loop (size 64)
  for (c1 = max(0, 64*c0); c1 <= min(N - 1, 64*c0 + 63); c1++) {
    S0(c1);
  }
}
#pragma omp parallel for
for (c0 = 0; c0 <= floord(N - 1, 64); c0++) { // tile loop (size 64)
  for (c1 = max(0, 64*c0); c1 <= min(N - 1, 64*c0 + 63); c1++) {
    S1(c1);
  }
}

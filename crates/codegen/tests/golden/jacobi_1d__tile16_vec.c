for (c0 = 0; c0 <= floord(T - 1, 16); c0++) { // tile loop (size 16)
  for (c1 = c0; c1 <= min(floord(T + N - 3, 16), floord(16*c0 + N + 13, 16)); c1++) { // tile loop (size 16)
    for (c2 = max(0, 16*c0, 16*c1 - N + 2); c2 <= min(T - 1, 16*c0 + 15, 16*c1 + 14); c2++) {
      for (c3 = max(c2 + 1, 16*c1); c3 <= min(c2 + N - 2, 16*c1 + 15); c3++) {
        S0(c2, -c2 + c3);
      }
    }
  }
}

for (c0 = 0; c0 <= floord(T - 1, 16); c0++) { // tile loop (size 16)
  for (c1 = c0; c1 <= min(floord(T + N - 3, 16), floord(16*c0 + N + 13, 16)); c1++) { // tile loop (size 16)
    for (c2 = ceild(16*c1 - N - 12, 16); c2 <= min(floord(T + N - 3, 16), floord(16*c0 + N + 13, 16), floord(16*c1 + N + 12, 16)); c2++) { // tile loop (size 16)
      for (c3 = max(0, 16*c0, 16*c2 - N + 2, 16*c1 - N + 2); c3 <= min(T - 1, 16*c0 + 15, 16*c2 + 14, 16*c1 + 14); c3++) {
        for (c4 = max(c3 + 1, 16*c1); c4 <= min(c3 + N - 2, 16*c1 + 15); c4++) {
          for (c5 = max(c3 + 1, 16*c2); c5 <= min(c3 + N - 2, 16*c2 + 15); c5++) {
            S0(c3, -c3 + c4, -c3 + c5);
          }
        }
      }
    }
  }
}

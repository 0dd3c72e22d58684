#!/usr/bin/env python3
"""Studying the two optimizations: interleaving and coalescing.

Reproduces the paper's Section 3 microbenchmarks interactively:

* Kernel Interleaving (Fig. 9): sweep the kernel length of the
  copy/kernel/copy loop against Eq. (7), and the number of interleaved
  programs against Eq. (8)'s 3N/(N+2).
* Kernel Coalescing (Fig. 10a): sweep how many of 64 identical
  vectorAdd programs merge into one launch.

Run:  python examples/optimization_study.py
"""

from repro.analysis import (
    fig9a_series,
    fig9b_series,
    fig10a_series,
    render_table,
)


def main() -> None:
    print("Kernel Interleaving: sweeping kernel length (2 programs, "
          "Tm = 13.44 ms)...")
    points = fig9a_series(kernel_lengths_ms=(2.0, 8.0, 13.44, 30.0, 60.0))
    print(render_table(
        ["kernel ms", "measured", "Eq. (7)"],
        [(f"{p.x:.2f}", p.measured, p.expected) for p in points],
        title="speedup vs kernel length",
    ))
    peak = max(points, key=lambda p: p.measured)
    print(f"-> peak at ~{peak.x:.1f} ms: latency hiding is strongest when "
          "kernel time matches the copy time\n")

    print("Kernel Interleaving: sweeping program count (Tk = Tm)...")
    points = fig9b_series(program_counts=(2, 4, 8, 16))
    print(render_table(
        ["N", "measured", "3N/(N+2)"],
        [(int(p.x), p.measured, p.expected) for p in points],
        title="speedup vs N",
    ))
    print("-> approaches 3x: three pipeline stages fully overlapped\n")

    print("Kernel Coalescing: sweeping batch degree (64 programs)...")
    points = fig10a_series(batch_degrees=(1, 4, 16, 64))
    print(render_table(
        ["batch", "time (ms)", "speedup"],
        [(p.batch, p.total_ms, p.speedup) for p in points],
        title="coalescing 64 vectorAdd programs",
    ))
    print("-> merged launches amortize launch/profiling overhead and "
          "realign small grids to the device's wave quantum")


if __name__ == "__main__":
    main()

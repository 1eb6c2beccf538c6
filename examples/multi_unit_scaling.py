"""Multi-unit scaling: one layer across 1, 2, 4 and 8 Softbrain tiles.

Simulates the paper's scaled-out configuration (Section 7.1 uses 8 units
against DianNao) with *real* memory contention: every unit shares one
memory interface that accepts a single 64-byte request per cycle, so the
speedup curve bends exactly where the workload stops being compute-bound.

Run:  python examples/multi_unit_scaling.py
"""

from repro.workloads.common import run_units_and_verify
from repro.workloads.dnn import build_conv
from repro.workloads.dnn.layers import ConvLayer


def main() -> None:
    layer = ConvLayer("scaling", out_w=16, out_h=16, n_in=4, k=3, n_out=8)
    print(f"layer: conv {layer.out_w}x{layer.out_h}x{layer.n_out}, "
          f"{layer.k}x{layer.k} kernels over {layer.n_in} input maps "
          f"({layer.mac_ops} MACs, {layer.unique_bytes} unique bytes)\n")
    print(f"{'units':>6} {'device cycles':>14} {'speedup':>9} {'efficiency':>11}")

    baseline = None
    for units in (1, 2, 4, 8):
        result = run_units_and_verify([
            build_conv(layer, unit_id=u, num_units=units)
            for u in range(units)
        ])
        baseline = baseline or result.cycles
        speedup = baseline / result.cycles
        print(f"{units:>6} {result.cycles:>14} {speedup:>8.2f}x "
              f"{speedup / units:>10.0%}")

    print(
        "\nConvolution is compute-bound, so units scale well until the"
        "\nshared memory interface (one 64-byte request per cycle, all"
        "\nunits contending) starts to bite — the regime where the paper"
        "\ncompares 8 Softbrain units against DianNao."
    )


if __name__ == "__main__":
    main()

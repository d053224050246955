"""Fixed calibration kernel: measures how fast the host runs right now.

Usage: python3 perfbench/calib.py --n N

Runs a fixed numpy loop on N x N complex arrays, built from the same kinds
of work the program does at that grid size: a 2-D FFT pair with spectral
derivatives, a product, a weighted squared-norm sum, a dense matrix product
and a norm. It uses no shearvortex code, so a change to the program leaves
it alone. Prints one JSON line with the loop's wall time. Each sample is a
fresh process, as each measured repeat is, so the kernel pays the same
first-touch page faults that make up a quarter of a sim repeat's CPU time.

The host's speed drifts over tens of seconds (a sim repeat ranges over
1.1-2.0 s on a shared 2-vCPU machine), and this kernel, run next to each
repeat, drifts with it; perfbench/run.py divides each repeat's time by the
kernel's.
"""

import argparse
import json
import time

import numpy as np

# iterations per grid size, about 0.4 s each on the machine in README.md
ITERATIONS = {128: 250, 512: 8}


def kernel(n, iterations):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = 2 * np.pi * np.fft.fftfreq(n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    x = np.linspace(-4.0, 4.0, n)
    weight = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 4)
    mix = (np.exp(-np.abs(np.subtract.outer(x, x))) / n).astype(complex)
    total = 0.0
    for _ in range(iterations):
        b = np.fft.fft2(a)
        a = 0.99 * a + 1e-3 * np.fft.ifft2(1j * kx * b) * np.fft.ifft2(1j * ky * b)
        total += float(np.sum(np.abs(a) ** 2 * weight))
        a = a + 1e-3 * (mix @ a)
        a /= np.linalg.norm(a) / n
    return total


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--n", type=int, required=True, choices=sorted(ITERATIONS))
    args = p.parse_args()
    t0 = time.perf_counter()
    kernel(args.n, ITERATIONS[args.n])
    print(json.dumps({"kernel_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()

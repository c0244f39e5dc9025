"""Why few traces cannot pin down a string: the paired-binomial barrier.

Reconstruction from M traces is at least as hard as this game: a hidden bit b
selects between two product distributions over count pairs,

    D0 = Bin(M, 1-d) x Bin(M+1, 1-d)    (b = 0)
    D1 = Bin(M+1, 1-d) x Bin(M, 1-d)    (b = 1)

and the decoder sees M draws. The pair encodes how many survivors two
adjacent runs (lengths M and M+1, or swapped) keep under the deletion
channel. Even the Bayes-optimal rule fails with constant probability, and B
independent copies multiply: exact recovery of B hidden bits decays like
(1-p)^B no matter the decoder.
"""

import math

from tracerecon import (
    decode_prlp_bayes,
    embed_instance,
    exact_atomic_failure_prob,
    extract_z,
    find_pattern_occurrences,
    mc_atomic_failure_prob,
    mc_prlp_exact_match,
    random_bits,
    sample_prlp,
    simulate_aprlp,
)
from tracerecon.lower_bound import EmbeddingSpec, build_alpha_beta
from tracerecon.rng import stream

rng = stream(17, 0)

# --- the atomic problem ------------------------------------------------------
print("exact Bayes failure probability (likelihood-ratio factorization):")
for m in (1, 2, 3):
    for d in (0.1, 0.25, 0.5):
        print(f"  M={m}, delta={d}: p = {exact_atomic_failure_prob(m, d):.6f}")

p_hat, se = mc_atomic_failure_prob(1, 0.5, 10**6, rng)
print(f"Monte Carlo at (M=1, delta=0.5): {p_hat:.4f} +- {se:.4f} "
      f"(exact 0.3125)")

# One concrete decision: seeing (M, M-1) M times favors b=1 by a factor 2^M.
# One game is a one-coordinate PRLP instance, its M pairs of shape (M, 1, 2).
print(f"decode_prlp_bayes([[(1, 0)]], M=1, delta=0.5) = "
      f"{decode_prlp_bayes([[(1, 0)]], 1, 0.5)}")

# --- direct sum: B copies ---------------------------------------------------
B, trials = 8, 10**5
rate = mc_prlp_exact_match(1, 0.5, B, trials, rng)
ceiling = (1 - 0.3125) ** B
print(f"\nPr[all {B} bits right] = {rate:.4f} over {trials} trials; "
      f"(1-p)^B = {ceiling:.4f}")

z = random_bits(B, rng)
samples = sample_prlp(z, 1, 0.5, rng)
z_hat = decode_prlp_bayes(samples, 1, 0.5)
print(f"one instance: z={z}, decoded {z_hat}, "
      f"{sum(a == b for a, b in zip(str(z), str(z_hat)))}/{B} coordinates right")

# --- embedding the game into trace reconstruction ---------------------------
# Two marker words of equal length that differ only in swapping the two runs:
alpha, beta = build_alpha_beta(1)
print(f"\nmarker words at M=1: alpha={alpha}, beta={beta}")

spec = EmbeddingSpec.build(m_pairs=1, b_len=16)
x_prime = random_bits(spec.n, rng)
occs = find_pattern_occurrences(x_prime, spec)
print(f"uniform host of length {spec.n}: {len(occs)} disjoint marker sites "
      f"(need {spec.B})")

z = random_bits(16, rng)
x = embed_instance(z, x_prime, spec)
print(f"embed then extract, no noise: recovered z exactly: "
      f"{extract_z(x, spec) == z}")

# A reconstructor that beat the trace lower bound would solve the counting
# game through this embedding; simulate_aprlp wires the composed traces into
# any reconstructor. With the trivial echo-a-trace reconstructor at small
# noise the markers mostly survive:
samples = sample_prlp(z, 1, 0.02, rng)
z_hat = simulate_aprlp(samples, lambda traces: traces[0], 0.02, 16, rng)
agree = sum(a == b for a, b in zip(str(z), str(z_hat)))
print(f"simulated pipeline at delta=0.02, echo reconstructor: "
      f"{agree}/{len(z_hat)} extracted coordinates agree")

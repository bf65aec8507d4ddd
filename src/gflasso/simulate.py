"""Synthetic genotype-style data with block-structured true coefficients.

The generator produces {0,1,2} minor-allele-count inputs, a coefficient
matrix whose non-zeros all equal a single signal level b, and Gaussian
outputs Y = X B + noise. The support pattern groups the outputs into
correlated blocks: each block shares its own set of relevant inputs, one
extra input is shared by the first two blocks, and one input is relevant
to every output. That layout is what makes correlation-thresholded task
graphs recover the blocks.

Randomness is split into named substreams so each artifact (genotypes,
coefficients, noise, test data) is reproducible on its own:
``substream_seed(seed, idx)`` feeds ``numpy.random.SeedSequence((seed, idx))``
with idx 0=train genotypes, 1=coefficients, 2=train noise, 3=test genotypes,
4=test noise. Replicate r of an experiment uses master seed
``substream_seed(master_seed, 1000 + r)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

STREAM_GENOTYPES = 0
STREAM_COEFFICIENTS = 1
STREAM_NOISE = 2
STREAM_TEST_GENOTYPES = 3
STREAM_TEST_NOISE = 4
_REPLICATE_OFFSET = 1000


def substream_seed(seed: int, idx: int) -> int:
    """Derive the integer seed of substream ``idx`` from a base seed."""
    return int(np.random.SeedSequence((int(seed), int(idx))).generate_state(1)[0])


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Per-replicate base seed for multi-replicate experiments."""
    return substream_seed(master_seed, _REPLICATE_OFFSET + replicate)


@dataclass(frozen=True)
class SimulationSpec:
    n_samples: int = 100
    n_inputs: int = 30
    n_outputs: int = 10
    signal: float = 0.8
    noise_sd: float = 1.0
    seed: int = 0
    group_sizes: tuple[int, ...] = (3, 3, 4)
    inputs_per_group: tuple[int, ...] = (3, 4, 4)

    def __post_init__(self) -> None:
        if min(self.n_samples, self.n_inputs, self.n_outputs) < 1:
            raise ValueError(f"n_samples, n_inputs, n_outputs must be >= 1, got {self.n_samples}, {self.n_inputs}, "
                             f"{self.n_outputs}")
        if not 0 < self.signal < np.inf:
            raise ValueError(f"signal must be positive and finite, got {self.signal}")
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and non-negative, got {self.noise_sd}")
        if sum(self.group_sizes) != self.n_outputs:
            raise ValueError(f"group sizes {self.group_sizes} must sum to n_outputs={self.n_outputs}")
        if len(self.inputs_per_group) != len(self.group_sizes):
            raise ValueError("inputs_per_group must match group_sizes in length")
        if any(g < 1 for g in self.group_sizes) or any(g < 1 for g in self.inputs_per_group):
            raise ValueError("group sizes and input counts must be >= 1")

    def required_inputs(self) -> int:
        extra = 2 if len(self.group_sizes) >= 2 else 1  # shared pair input + global input
        return sum(self.inputs_per_group) + extra

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["group_sizes"] = list(self.group_sizes)
        d["inputs_per_group"] = list(self.inputs_per_group)
        return d


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    B_true: np.ndarray
    spec: SimulationSpec


def gen_genotypes(n_samples: int, n_inputs: int, seed: int) -> np.ndarray:
    """Minor-allele-count matrix with entries in {0, 1, 2}.

    Each column draws its minor allele frequency uniformly from [0.05, 0.5]
    and then samples counts Binomial(2, maf) per individual.
    """
    rng = np.random.default_rng(seed)
    maf = rng.uniform(0.05, 0.5, size=n_inputs)
    return rng.binomial(2, maf, size=(n_samples, n_inputs)).astype(float)


def gen_coefficients(spec: SimulationSpec) -> np.ndarray:
    """Block-structured true coefficients with all non-zeros equal to the signal level.

    Relevant inputs are sampled without replacement so the per-group input
    sets are disjoint except for the two deliberately shared inputs.
    """
    needed = spec.required_inputs()
    if spec.n_inputs < needed:
        raise ValueError(f"need at least {needed} inputs for the support pattern, got {spec.n_inputs}")
    rng = np.random.default_rng(substream_seed(spec.seed, STREAM_COEFFICIENTS))
    pool = rng.choice(spec.n_inputs, size=needed, replace=False)

    B = np.zeros((spec.n_inputs, spec.n_outputs))
    col_start = 0
    offset = 0
    group_cols: list[np.ndarray] = []
    for size, n_in in zip(spec.group_sizes, spec.inputs_per_group):
        cols = np.arange(col_start, col_start + size)
        group_cols.append(cols)
        picks = pool[offset : offset + n_in]
        B[np.ix_(picks, cols)] = spec.signal
        col_start += size
        offset += n_in
    if len(spec.group_sizes) >= 2:
        shared_pair = pool[offset]
        offset += 1
        B[shared_pair, np.concatenate(group_cols[:2])] = spec.signal
    shared_all = pool[offset]
    B[shared_all, :] = spec.signal
    return B


def gen_outputs(X: np.ndarray, B_true: np.ndarray, noise_sd: float, seed: int) -> np.ndarray:
    """Y = X B_true + Gaussian noise with standard deviation noise_sd."""
    X = np.asarray(X, dtype=float)
    B_true = np.asarray(B_true, dtype=float)
    if X.shape[1] != B_true.shape[0]:
        raise ValueError(f"X has {X.shape[1]} columns but B_true has {B_true.shape[0]} rows")
    rng = np.random.default_rng(seed)
    return X @ B_true + noise_sd * rng.standard_normal((X.shape[0], B_true.shape[1]))


def simulate_dataset(spec: SimulationSpec) -> Dataset:
    """Full pipeline: genotypes, coefficients, outputs; deterministic in spec."""
    X = gen_genotypes(spec.n_samples, spec.n_inputs, substream_seed(spec.seed, STREAM_GENOTYPES))
    B_true = gen_coefficients(spec)
    Y = gen_outputs(X, B_true, spec.noise_sd, substream_seed(spec.seed, STREAM_NOISE))
    return Dataset(X=X, Y=Y, B_true=B_true, spec=spec)


def simulate_test_set(spec: SimulationSpec, B_true: np.ndarray, n_test: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh test inputs and outputs for the same true coefficients."""
    X = gen_genotypes(n_test, spec.n_inputs, substream_seed(spec.seed, STREAM_TEST_GENOTYPES))
    Y = gen_outputs(X, B_true, spec.noise_sd, substream_seed(spec.seed, STREAM_TEST_NOISE))
    return X, Y


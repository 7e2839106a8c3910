#!/usr/bin/env python
"""Pima workflow: missing-data treatments and the feature-vs-HV comparison.

Reproduces the paper's Pima methodology end-to-end:

* generate the full 768-row table (missing labs encoded as zeros);
* derive **Pima R** (complete cases, the paper's 392 patients) and
  **Pima M** (per-class median imputation, Artem's variant);
* run the Hamming model on both;
* train the Sequential NN (2x32 ReLU, early stopping) on raw features and
  on hypervectors, with the paper's 70/15/15 protocol;
* print a Table II-style comparison.

Run:  python examples/pima_pipeline.py
          (full 10k-bit protocol: the hypervector NN repeats dominate;
          expect tens of minutes on one core)
      REPRO_EXAMPLE_FAST=1 python examples/pima_pipeline.py   (seconds)
"""

import os

import numpy as np

from repro.core import RecordEncoder
from repro.data import generate_pima, load_pima_m, load_pima_r, missing_mask
from repro.data.pima import PIMA_MISSING_COLUMNS
from repro.eval import leave_one_out_hamming, train_val_test_split
from repro.ml import SequentialNN
from repro.ml.pipeline import ScaledClassifier

FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))
DIM = 1024 if FAST else 10_000
EPOCHS = 60 if FAST else 1000
REPEATS = 2 if FAST else 5
SEED = 7


def nn_test_accuracy(X, y, *, scaled: bool) -> float:
    """Paper §II-D: 70/15/15 split, patience-20 early stopping, repeated."""
    accs = []
    for rep in range(REPEATS):
        X_tr, X_val, X_te, y_tr, y_val, y_te = train_val_test_split(
            X, y, val_size=0.15, test_size=0.15, stratify=y, seed=SEED + rep
        )
        nn = SequentialNN(
            hidden=(32, 32),
            epochs=EPOCHS,
            patience=20,
            validation_fraction=0.18,  # carve ~15% of train+val back out
            random_state=SEED + rep,
        )
        model = ScaledClassifier(nn) if scaled else nn
        model.fit(np.vstack([X_tr, X_val]), np.concatenate([y_tr, y_val]))
        accs.append(model.score(X_te, y_te))
    return float(np.mean(accs))


def main() -> None:
    base = generate_pima(seed=2023)
    n_missing = missing_mask(base, PIMA_MISSING_COLUMNS).any(axis=1).sum()
    print(f"Full Pima table: {base.class_summary()}")
    print(f"  rows with missing labs: {n_missing}")

    variants = {"Pima R": load_pima_r(base=base), "Pima M": load_pima_m(base=base)}
    print(f"\n{'Dataset':8s}  {'Hamming':>8s}  {'NN feat':>8s}  {'NN HV':>8s}")
    for label, ds in variants.items():
        # n_jobs=None consults REPRO_WORKERS (the CPU count when unset);
        # the fast preset shrinks chunks so a worker fan-out is exercised
        # even on the small table.
        enc = RecordEncoder(
            specs=ds.specs, dim=DIM, seed=SEED,
            n_jobs=None, chunk_rows=256 if FAST else 2048,
        ).fit(ds.X)
        packed = enc.transform(ds.X)
        dense = enc.transform_dense(ds.X).astype(float)

        ham = leave_one_out_hamming(packed, ds.y, n_jobs=None).accuracy
        nn_f = nn_test_accuracy(ds.X, ds.y, scaled=True)
        nn_h = nn_test_accuracy(dense, ds.y, scaled=False)
        print(f"{label:8s}  {ham:8.1%}  {nn_f:8.1%}  {nn_h:8.1%}")

    print(
        "\nPaper reference (Table II): Pima R 70.7% / 71.2% / 79.6%, "
        "Pima M 78.8% / 75.9% / 88.8%"
    )


if __name__ == "__main__":
    main()

"""Seed derivation for every random draw in the simulator.

All randomness flows from a single master seed through numpy SeedSequence
spawn keys.  A federation's streams are keyed (party, round, purpose) under
the master seed: party 0 is the server and client j is party j + 1, so the
key is auditable and every (party, round, purpose) triple owns an
independent stream.  Because no stream is shared, results cannot depend on
the order in which parties execute.  The data streams are keyed by their
purpose first, under seeds derived from the master seed: (DATASET,) under
the dataset seed; (PARTITION,), (PARTITION, client) and (PARTITION, client,
1) under the partition seed; (SPLIT,) under a client's split seed.
"""

from __future__ import annotations

import numpy as np

SERVER_PARTY = 0

# Purpose codes used in spawn keys.
INIT = 0
SGD = 1
FINE_TUNE = 2
DATASET = 3
PARTITION = 4
SPLIT = 5
SWEEP = 6


def client_party(client_id: int) -> int:
    return client_id + 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream that the spawn key names under seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def substream(master_seed: int, party: int, round_idx: int, purpose: int) -> np.random.Generator:
    """Generator for one party's (round, purpose) slot."""
    return stream(master_seed, party, round_idx, purpose)


def derive_seed(master_seed: int, *key: int) -> int:
    """Collapse a derivation key into a plain integer seed (for sub-runs)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])


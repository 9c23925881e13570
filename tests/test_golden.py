"""Golden outputs: per-round base checksums and a digest of the history for
5 rounds of three configs, recorded from the per-client training loop that
the lock-step engine replaced.  Any change to the arithmetic of local
training, aggregation or evaluation shows here as a mismatch."""

import hashlib

import pytest

from fedper.config import apply_overrides, build_dataset, default_config, resolve
from fedper.experiment import run_experiment

GOLDEN = {
    "default": (
        ["rounds=5"],
        [
            "c771b1f2ba1ff5891ffbef6fcd10ed7b1b287695387c696e3496e3b78fe7328a",
            "b7c3f08003fdeaf2f082e8f8af3f36b2e8b5f12a3b6502b70e103167667224fd",
            "3e5dc9ffca3f5ab4d1a4fd17d919532a39f55ce5350b9d00882ecacf3621c71f",
            "01a30591a3bbb98d1810e066ddcdfd4595d9735c8d87ab015913d1edec73d976",
            "682ab134c23e3c39dd36cbed2e587032867ef461a2db4e54b74177f284a6ca52",
        ],
        "066a7dc0c5c9082e7537b2ec717045ece67f0b5bd1fdfba4327e6bad1ea6e596",
    ),
    "unbalanced_finetune": (
        [
            "rounds=5",
            "partition.mode=unbalanced_users",
            "partition.rater_disagreement=true",
            "fine_tune=true",
            "sgd.eta=0.05",
        ],
        [
            "db002036137e356446ea25b660c6379db824034b04c3abda2b0e0dc5f0d94a5d",
            "479f0aa129ac69c49e83b06024d55c830863330121ed80412b89c4149ac9cb4e",
            "88083e29af583d28aa742e730b888e71cc984345fe729bd314c4c0fea4be363f",
            "26e5f683911725abf688f07ea56c2665f599e8d148b89373706cc96fd38018ec",
            "ec2c5529a91b3e2fc20dab30f0dab91290c18b637cec1cb50968444ed45cb3e5",
        ],
        "70f5d5e2bfe41650f3be0cf8c4531c20a5b2819c5e135812514e5ca02b68a4bf",
    ),
    "fedavg": (
        ["rounds=5", "algorithm=fedavg"],
        [
            "8718ffee7c04bce4ca59dcb666299bdf2d5e3a3064559a711883907c78a63bf4",
            "f52ac62f8eedf469b7e8ff8203c83445e3f34e231ca030e1e8167ddd91dd862d",
            "1302acd36a562b0f09bc82154867b45453fc67d91c0cdcde286a686257699032",
            "94599a604642e32d959532942172ce1c5d37278bfe433a0e90c29f10d42cd63e",
            "51a893bbb5ef60764344d6d4c301de70a45e3dc835e2d66321f5d710eab1b41e",
        ],
        "78d6483b28eb9fda0bd2483ddb3030ef0f8b0b785a58c2ef40639f8cd22a8f70",
    ),
}


def history_digest(history) -> str:
    text = "\n".join(
        f"{m.round_idx},{m.client_id},{m.test_accuracy!r},{m.train_loss!r}"
        for record in history.rounds
        for m in record.clients
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_per_round_checksums_match_golden(name):
    overrides, checksums, digest = GOLDEN[name]
    resolved = resolve(apply_overrides(default_config(), overrides))
    history = run_experiment(resolved.run, build_dataset(resolved.dataset)).history
    assert [r.base_checksum for r in history.rounds] == checksums
    assert history_digest(history) == digest

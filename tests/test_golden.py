"""Golden outputs: per-round base checksums and a digest of the history for
5 rounds of five configs.  The first three were recorded from the
per-client training loop that the lock-step engine replaced; the fourth has
40 equal sets of 160 training rows, so ROW_BUDGET splits its whole-set
launches and its training scoring groups into 25 + 15 clients, and the
spare-block gather/scatter runs.  The fifth, recorded from the engine that
launched each batch size of a step on its own, has 24 ragged fine-tuned
sets at B=256: the first step of each epoch holds more than ROW_BUDGET rows
of many batch sizes, so it splits into two launches of several segments
each, and the training sets' scoring launches mix set lengths.  Any change
to the arithmetic of local training, aggregation or evaluation shows here
as a mismatch.

CHECKPOINT_GOLDEN pins the sha256 of the final checkpoint files that
`fedper run` writes for three of those configs, recorded from the run that
kept the aggregated base as a separate list and stacked the clients'
personal layers into new arrays to write them.  fedavg's personal file
holds no layer."""

import hashlib

import pytest

from fedper.cli import main
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
    "budget_split": (
        ["rounds=5", "partition.num_clients=40", "partition.k=4", "dataset.per_class=2000", "sgd.batch_size=256"],
        [
            "cb183964864106ecbc02d1f12a353c517ee2fd27543875b4c512bb387c8caf92",
            "2b549d79a3ce05a49af3ea32a5a6b55d8e78e392fd693679665353287c6c2d01",
            "f13cd0e941b9b567679ceee4e87cfbb1ed970dfcf14c0ed02a63a6655238d99f",
            "7fec607f51db17929262a86aa654fb991267b07a5ce683acdaabd032cf03b0cc",
            "e405ba321f22c204125ebea36164d93e37bc1d7fb496cd16e89136f88ada71a0",
        ],
        "9fd752033dfac0c0d6d74f4eb70ff3d31b421190de1e626a80cd2e7de35c9190",
    ),
    "ragged_segments": (
        [
            "rounds=5",
            "partition.mode=unbalanced_users",
            "partition.rater_disagreement=true",
            "partition.num_clients=24",
            "partition.volume_range=[200,400]",
            "fine_tune=true",
            "sgd.eta=0.05",
            "sgd.batch_size=256",
        ],
        [
            "ad74b37c752a4bdc83f2e10ec9a4867d1c68c756c52fd806f98da5fb1776e93e",
            "093ae4655a911306bdeb474966fa189b49215e5f721bf8f493bc9b7cd77dee6d",
            "d94e0ad04f7025f2a7d2abdd6cdf99d44aab05eb036f3a9bc935c55d7966ecd2",
            "64af41e641e739e89d18779e26c1e0be229a82063a51bfd63296b087e94fd568",
            "d6ff4c6a49ffffbdceefe3163b8f6c766f4639eefd973f80e37c2100ebacf83f",
        ],
        "fe661463cef788356814d2c42be9c57334fc78067fb4e1a45b7f1ee0e8f60136",
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


CHECKPOINT_FILES = ("final_server_base.json", "final_server_base.bin", "final_personal.json", "final_personal.bin")
CHECKPOINT_GOLDEN = {
    "default": (
        "f8146d0c6d2e9a49700a3b480ba255aa44d521fd708ceadc1fd9e412bcb99e5b",
        "682ab134c23e3c39dd36cbed2e587032867ef461a2db4e54b74177f284a6ca52",
        "158290753eaf88898702b5e51bdb0844b861fa43b6fa8e1866cb7561eb82b8a5",
        "6440069a3b9106157d84705f3a9d62b4a927e37a2a54dad8f0c4e8ca4507c8b3",
    ),
    "unbalanced_finetune": (
        "f8146d0c6d2e9a49700a3b480ba255aa44d521fd708ceadc1fd9e412bcb99e5b",
        "ec2c5529a91b3e2fc20dab30f0dab91290c18b637cec1cb50968444ed45cb3e5",
        "158290753eaf88898702b5e51bdb0844b861fa43b6fa8e1866cb7561eb82b8a5",
        "6da4a2c3efdf2b92bccd579c4db35f74308b1e2d32d53731412105be173f89a3",
    ),
    "fedavg": (
        "5b589605a3a9cba231407b1aaff5dd4f922897a09e707de974ebcb331341a339",
        "51a893bbb5ef60764344d6d4c301de70a45e3dc835e2d66321f5d710eab1b41e",
        "51c7fc8c06d374d4223a16457d8b417655bb812454889175d723feee44a5be5c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("name", sorted(CHECKPOINT_GOLDEN))
def test_final_checkpoint_bytes_match_golden(name, tmp_path):
    settings = [a for setting in GOLDEN[name][0] for a in ("--set", setting)]
    assert main(["run", *settings, "--out", str(tmp_path)]) == 0
    written = [hashlib.sha256((tmp_path / "checkpoints" / f).read_bytes()).hexdigest() for f in CHECKPOINT_FILES]
    assert dict(zip(CHECKPOINT_FILES, written)) == dict(zip(CHECKPOINT_FILES, CHECKPOINT_GOLDEN[name]))

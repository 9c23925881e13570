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
holds no layer.

OpenBLAS cores round some products differently, so the values are stored
per core, and a test reads those of the core its process runs on
(helpers.blas_core).  The SkylakeX values were recorded as said above; the
others were captured later by `python tests/cores.py --capture CORE`,
which captures only on a core where TestTrainingReference passes.  A core
without stored values fails, naming the core and that command."""

import hashlib

import pytest

from fedper.cli import main
from fedper.config import apply_overrides, build_dataset, default_config, resolve
from fedper.experiment import run_experiment
from helpers import blas_core, core_note

CONFIGS = {
    "default": ["rounds=5"],
    "unbalanced_finetune": [
        "rounds=5",
        "partition.mode=unbalanced_users",
        "partition.rater_disagreement=true",
        "fine_tune=true",
        "sgd.eta=0.05",
    ],
    "fedavg": ["rounds=5", "algorithm=fedavg"],
    "budget_split": [
        "rounds=5",
        "partition.num_clients=40",
        "partition.k=4",
        "dataset.per_class=2000",
        "sgd.batch_size=256",
    ],
    "ragged_segments": [
        "rounds=5",
        "partition.mode=unbalanced_users",
        "partition.rater_disagreement=true",
        "partition.num_clients=24",
        "partition.volume_range=[200,400]",
        "fine_tune=true",
        "sgd.eta=0.05",
        "sgd.batch_size=256",
    ],
}

# Per OpenBLAS core (helpers.blas_core), per config: the per-round base
# checksums and the history digest.
GOLDEN = {
    "SkylakeX": {
        "default": (
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
                "db002036137e356446ea25b660c6379db824034b04c3abda2b0e0dc5f0d94a5d",
                "479f0aa129ac69c49e83b06024d55c830863330121ed80412b89c4149ac9cb4e",
                "88083e29af583d28aa742e730b888e71cc984345fe729bd314c4c0fea4be363f",
                "26e5f683911725abf688f07ea56c2665f599e8d148b89373706cc96fd38018ec",
                "ec2c5529a91b3e2fc20dab30f0dab91290c18b637cec1cb50968444ed45cb3e5",
            ],
            "70f5d5e2bfe41650f3be0cf8c4531c20a5b2819c5e135812514e5ca02b68a4bf",
        ),
        "fedavg": (
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
                "ad74b37c752a4bdc83f2e10ec9a4867d1c68c756c52fd806f98da5fb1776e93e",
                "093ae4655a911306bdeb474966fa189b49215e5f721bf8f493bc9b7cd77dee6d",
                "d94e0ad04f7025f2a7d2abdd6cdf99d44aab05eb036f3a9bc935c55d7966ecd2",
                "64af41e641e739e89d18779e26c1e0be229a82063a51bfd63296b087e94fd568",
                "d6ff4c6a49ffffbdceefe3163b8f6c766f4639eefd973f80e37c2100ebacf83f",
            ],
            "fe661463cef788356814d2c42be9c57334fc78067fb4e1a45b7f1ee0e8f60136",
        ),
    },
    "Haswell": {
        "default": (
            [
                "c771b1f2ba1ff5891ffbef6fcd10ed7b1b287695387c696e3496e3b78fe7328a",
                "bb416c3a1c4d369cb0b37dd1f4edacd552fd7e07bb2cc4fb8cbc17b4fd8d55b4",
                "5b799ac1f30bb0f30e42ca51491f3ea2cd86b78332ccb7cf37f7e4b40d235e32",
                "eda92180976341881aa3a1d264e1bbec9b8818c8c4226d86cdf2ef9827ce8e46",
                "ed810b81c22f97e31441a353b72257355ba9648afb8c7f9c7b0e036a8abe1e0d",
            ],
            "682dd528ca86c9405261c287e85640c3d59a39099c4736d94f453cc1443b433c",
        ),
        "unbalanced_finetune": (
            [
                "b08734e86a3313bdf52fd18abe83c3b3efbef864610801067292f12c07020d71",
                "1f9bf63597c177d2f9151847d27a6b9b7b39f53d3173f89f08e8500902fa0730",
                "ad4d0ad4ef1c82ac59b5728b7585a0d3c381c988baa9ffd0abc5da80257e4c09",
                "6c8a277a43267714e289e0d92ad2e72b394ac897a3488202ce718ba19ed93d40",
                "fb0653513cbe1436f64550dd7baa76bf7db30605b05e3e5e5950a0d811a94705",
            ],
            "b331b4342a58d7fa45bf01786438462d23def56f17e83f2a208aaaa778b0470d",
        ),
        "fedavg": (
            [
                "fec343082d91309bd60c0da952d6647bbc3ef5dd3d8f32dd78637c3605a733c4",
                "0fc0f0d793c7257ec9f2cc78ebf6530bcd0b5fd95effa1eeb5f2083205adaa41",
                "33141b11e2b551ca6dbbd81c15c000f0a841c2a17ea1ef0ab1155cd4fc16b1dd",
                "cf42d7effa5b415cbb7485af2e1658d6ca044cf1d2b595d8410d6824490cc457",
                "56b23c25f511b8af694eb7efed5de4544f26b9e780b841c9dbfa74a2f48c0952",
            ],
            "485374501d1988ca0f2ed9f35efddd36df4dfff4d44487f282681c0611ef5b23",
        ),
        "budget_split": (
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
                "2e6c51eee4a3953c43e9a7bd38f25e9b35453441c6f696fcc14087550ef3eacf",
                "9c92981caa090753e4ab05cd0516f5c26b4b0a7b474a73799a134c6d7dc7710e",
                "c07460eeac7dd655999491ce206eb3a5064fa2a0f9fb12221e9b999948155774",
                "befdebd2411a02fccd17dce6a2df9e39685d9ee3b7f8b8751f37923877578a71",
                "fbfc9e313722c18934b9b5053ac7129d94f8185f7452727aa802f9185d4090e7",
            ],
            "4b33b4e9a0d197fe6f95afec159d19b85750b766edbbb656f17b46b33ec03065",
        ),
    },
}

CHECKPOINT_GOLDEN = {
    "SkylakeX": {
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
    },
    "Haswell": {
        "default": (
            "f8146d0c6d2e9a49700a3b480ba255aa44d521fd708ceadc1fd9e412bcb99e5b",
            "ed810b81c22f97e31441a353b72257355ba9648afb8c7f9c7b0e036a8abe1e0d",
            "158290753eaf88898702b5e51bdb0844b861fa43b6fa8e1866cb7561eb82b8a5",
            "fda9083e57c23e31c12259410891dd19508cdc4fc99d7722f07f61f1fd1c127f",
        ),
        "unbalanced_finetune": (
            "f8146d0c6d2e9a49700a3b480ba255aa44d521fd708ceadc1fd9e412bcb99e5b",
            "fb0653513cbe1436f64550dd7baa76bf7db30605b05e3e5e5950a0d811a94705",
            "158290753eaf88898702b5e51bdb0844b861fa43b6fa8e1866cb7561eb82b8a5",
            "3e0f0d1320f8f82325327cb6ff329755fa0ad1044c0cc50d073c3f63a095b7c1",
        ),
        "fedavg": (
            "5b589605a3a9cba231407b1aaff5dd4f922897a09e707de974ebcb331341a339",
            "56b23c25f511b8af694eb7efed5de4544f26b9e780b841c9dbfa74a2f48c0952",
            "51c7fc8c06d374d4223a16457d8b417655bb812454889175d723feee44a5be5c",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
    },
}


def stored(table: dict, name: str):
    """The values of table stored for this process's OpenBLAS core."""
    core = blas_core()
    if core not in table:
        pytest.fail(
            f"no golden values are stored for OpenBLAS core {core} (only for {', '.join(table)}); "
            f"capture them with `python tests/cores.py --capture {core}`"
        )
    return table[core][name]


def history_digest(history) -> str:
    text = "\n".join(
        f"{m.round_idx},{m.client_id},{m.test_accuracy!r},{m.train_loss!r}"
        for record in history.rounds
        for m in record.clients
    )
    return hashlib.sha256(text.encode()).hexdigest()


def history_values(name: str) -> tuple[list[str], str]:
    """The per-round base checksums and the history digest of config name."""
    resolved = resolve(apply_overrides(default_config(), CONFIGS[name]))
    history = run_experiment(resolved.run, build_dataset(resolved.dataset)).history
    return [r.base_checksum for r in history.rounds], history_digest(history)


CHECKPOINT_FILES = ("final_server_base.json", "final_server_base.bin", "final_personal.json", "final_personal.bin")


def checkpoint_values(name: str, out) -> tuple[str, ...]:
    """The sha256 of each of CHECKPOINT_FILES that `fedper run` of config
    name writes under the directory out."""
    assert main(["run", *(a for setting in CONFIGS[name] for a in ("--set", setting)), "--out", str(out)]) == 0
    return tuple(hashlib.sha256((out / "checkpoints" / f).read_bytes()).hexdigest() for f in CHECKPOINT_FILES)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_per_round_checksums_match_golden(name):
    checksums, digest = stored(GOLDEN, name)
    got_checksums, got_digest = history_values(name)
    assert got_checksums == checksums, f"values stored for OpenBLAS core {blas_core()}"
    assert got_digest == digest, f"values stored for OpenBLAS core {blas_core()}"


@pytest.mark.parametrize("name", sorted(CHECKPOINT_GOLDEN["SkylakeX"]))
def test_final_checkpoint_bytes_match_golden(name, tmp_path):
    expected = stored(CHECKPOINT_GOLDEN, name)
    written = checkpoint_values(name, tmp_path)
    assert dict(zip(CHECKPOINT_FILES, written)) == dict(zip(CHECKPOINT_FILES, expected)), (
        f"values stored for OpenBLAS core {blas_core()}"
    )


def test_every_core_stores_every_config():
    assert all(set(table) == set(CONFIGS) for table in GOLDEN.values())
    assert all(set(table) == set(CHECKPOINT_GOLDEN["SkylakeX"]) for table in CHECKPOINT_GOLDEN.values())


def test_a_core_without_stored_values_fails_naming_it_and_the_capture_command(monkeypatch):
    monkeypatch.setitem(globals(), "blas_core", lambda: "Zen")
    with pytest.raises(pytest.fail.Exception) as failure:
        stored(GOLDEN, "default")
    assert str(failure.value) == (
        f"no golden values are stored for OpenBLAS core Zen (only for {', '.join(GOLDEN)}); "
        "capture them with `python tests/cores.py --capture Zen`"
    )


def test_core_note_names_this_process_core():
    """The mismatch message is built only on a mismatch, so build it here:
    a message that raised would hide the mismatch it reports."""
    assert core_note().endswith(f"this process runs on {blas_core()}") and blas_core()

"""Golden outputs: per-round base checksums and a digest of the history for
5 rounds of six configs.  The first three were recorded from the
per-client training loop that the lock-step engine replaced; the fourth has
40 equal sets of 160 training rows, so the row budget splits its whole-set
launches and its training scoring launches: into 25 + 15 clients in a run
of one client group, at the full ROW_BUDGET, and into 12 + 8 clients in
each of the two groups of 20 that the run splits into on a machine with
two or more usable cores, at a budget of 2,048 rows each.  Every launch
gathers its clients' weight rows into the plan's launch block and scatters
them back.  The fifth, recorded from the engine that launched each batch
size of a step on its own, has 24 ragged fine-tuned sets at B=256: the
first step of each epoch holds more than the budget's rows of many batch
sizes (ROW_BUDGET in one group; 2,048 in each of the two groups of 12 on
two or more cores), so it splits into two launches of several segments
each, and the training sets' scoring launches mix set lengths.  The
sixth, odd_widths, is a fine-tuned run of an 8 -> 7 -> 5 -> 4 model, whose
layers hold 63, 40 and 24 parameters: it was recorded while a weight-block
row held the layers end to end, with layers 1 and 2 from odd columns, and
holds unchanged since nn.columns starts every layer at an even column
(the other configs' layers each hold an even number of parameters, so
their columns never moved).  Any change to the arithmetic of local training, aggregation
or evaluation shows here as a mismatch.

CHECKPOINT_GOLDEN pins the sha256 of the final checkpoint files that
`fedper run` writes for four of those configs, the first three recorded
from the run that kept the aggregated base as a separate list and stacked
the clients' personal layers into new arrays to write them, odd_widths
with its checksums.  fedavg's personal file holds no layer.

OpenBLAS cores round some products differently, so the values are stored
per core, and a test reads those of the core its process runs on
(helpers.blas_core).  The SkylakeX values were recorded as said above; the
others were captured later by `python tests/cores.py --capture CORE`,
which captures only on a core where TestTrainingReference passes:
Haswell's with the layers end to end (odd_widths too), and Katmai's,
OpenBLAS's generic core, once every layer started at an even column, as
before that its training did not match the reference.  A core without
stored values fails, naming the core and that command."""

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
    "odd_widths": [
        "rounds=5",
        'model.layers=[{"in_dim":8,"out_dim":7,"activation":"relu"},{"in_dim":7,"out_dim":5,"activation":"relu"},'
        '{"in_dim":5,"out_dim":4,"activation":"identity"}]',
        "partition.mode=unbalanced_users",
        "partition.rater_disagreement=true",
        "fine_tune=true",
        "sgd.eta=0.05",
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
        "odd_widths": (
            [
                "5bd973be4c79789b36e4f80577dbd6c25bae75f8156d13ef9b6ed65cedfadd23",
                "e5224cd7e9a4d97715081e065eb27b67356eb5a297cdf5758b6c09cb4e339add",
                "035ce4349556d3f809c8d73779bca13078bda45788bd9b2a73ddc4b15089ee3f",
                "c02e9f5d07b4f4cdf1c084870ddcec1d1d29a0a60178ae60a14532c5ec9cee2f",
                "c48d91c89a5a97b6e239e6cc2ffa72436a1f1fb0e38459ecfb0ad0f5e3ed9e8f",
            ],
            "521fa73b437195f670e672b7b7ef5eb0423f41cac9952e18542efeb9c3c7668b",
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
        "odd_widths": (
            [
                "ad75ab599db3d11ccb8f1393e26469d76ce3153ab731a0f6dd541a7f8d74f927",
                "4ab07d7eef2196095597a03a3fb9cf5e28d812d1fd2304c823e43ad6f20fc6ea",
                "e7dc0f423c68fbab9977c92fc9d82f35024297300da3e1e30e0563858e4cc474",
                "bea6648e3903f3b25934d81131a5a952e7ca5b312e1ea7e945d85d2be7a486c9",
                "4b711af9f06f827ce237a5acedffd77de2315fe015687a6363de4cd14e306a7f",
            ],
            "88aaa386026c7be9023d40bdba5880d6e72406175a41078f4352a19082985b27",
        ),
    },
    "Katmai": {
        "default": (
            [
                "f6cdb38b277ec1ce0261c258e7afc5889dc65ac4ef94800638d2cb9ced743a56",
                "0b72deba0236d91ef16cba626621123ee9ce9206857601ece4c8155095c5940c",
                "3048b2246ad0dc4b8a082b4cba4a1b575c198386d8e016ee9fa21d4f23294969",
                "c0a2c61eca42075044e9c8c7a22e6f9fc36316cb1e63f2b11b3083ab8e36a1d8",
                "842f925c4a728611eb4e706cbe49559835ba262aff90f65d9a11a3861ca4ebb7",
            ],
            "cbada09f611fa6dcbbca3561daee1308f39ca29dd82b4de422ee684c40974738",
        ),
        "unbalanced_finetune": (
            [
                "f5ae2381b06c62ca8bbfc59f890eee3ee25a7f14f42e2be05d768a4113f33c37",
                "d571da8307f047e46808a23bd240f884d88ff938bcf7ab91220bcbc1abe6b7d0",
                "9428e2ee0f407576264f477d709cf4410f8a4e986f88eedb89da3b89df984c86",
                "98d9003349de59a93d4cbe803955de6b4277d2e5f3074c20a7f5b23ad0476323",
                "5c71010926d634ddd4db6dcf5e3a2255496cdb83f0f82ee8de8452240cc150c2",
            ],
            "fa0202222e6a65f753a47291d96820de59987b6b5584304f131d97e9f80acd9e",
        ),
        "fedavg": (
            [
                "162079b51c2cdbe2da09c1ce54c24c8a9c73b0d01781a4318cbfd1d8c081d729",
                "f979f53d58be265b75dee4aa00c251dfe12600c005004315e39aa21d15475cb6",
                "55edd278a7c1e00c7f99f73836481b6e9115ef19cb0587bf42be9e1d9b8a6565",
                "b9d97aa3d201dceb9e583eab330dc73af26db22ae91b1ba886b23b31a9859b55",
                "7e54edcdf81a484021e1f2365062265600b4204fe96a469fe338c4d32cf54de8",
            ],
            "36dae33a2e88d5333e2bab66c9bd865b05c4c3898af1de512e88b310254a4b1e",
        ),
        "budget_split": (
            [
                "4e14f5409b3bdcc6532321bdb11f8f86ba7f906a64d110fd97e3c000455c7e1d",
                "ec67d6cc8f8d1423547aaf57fcde1352972f320638d2c78b6a296b8976390ad3",
                "6d3cb930c77b48910a7931cb55ea1b85605c5872aa943c53c11489e9350cf0ab",
                "c82030ce208756c62c7745be91609af8dd670f5801699c1012cc994cbb02831d",
                "76c04517e683b91c550d81f9bab89ee8a5d2d075d10ddfc18268a81fda077d5a",
            ],
            "6caee22afcf5184e490076fc040eeb4035b9baa09419254afed3a9dba9cf6d68",
        ),
        "ragged_segments": (
            [
                "c92d5ab60ff275821517072382d8ceafe93cabe6eeebb034b7b215a30923c937",
                "9da13fb01d5110fa9ac8eee4d66aedd8f06debcfaa8de09fdb2eaa9992925e2a",
                "45a1c81a3d1183968a2991dfd79b64f3489ad82daee6174f959c99b4613663e5",
                "288492c8693dab9fb9ff3bc61eee675d7816c8b9300962a9996fd31af48828f2",
                "debd85c54f42be51e7d6804e973f1b4d9030718a8c6d680b2bd99c05bd5ec04e",
            ],
            "c60a259ff66ca85a75f30dc275cb9a9ebd76f4c023b085fbfd5171fb285c8e64",
        ),
        "odd_widths": (
            [
                "6a1ce0c2730caa25e833d6a1d70052aec6d21b06451e40c5fe06038bf00a5f96",
                "3482432e35327fe3d5bc23d208b2a17d114db61f4889463cac0f0c0804ecd03d",
                "c347f9f0884a249e6849737c098b943988020de7b2bcedcc08d355d0b6090b77",
                "4929fa8affc54d1cf84fdf09e23c871b0c049096fe274b5ff823f58e2cc7856c",
                "9ed05660fe80d50aa4fe441c2c1686e7d2befe19ecb8cd78b1cf2be1a550d0be",
            ],
            "c5ee8d959f4692ac1950981b145bc9ae54f5369677b3235ed0f1929eced3e3bf",
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
        "odd_widths": (
            "43ec5bca80a8ef1dffc6fc25afdcd063bae779030419111764e9907e9ea39f4a",
            "c48d91c89a5a97b6e239e6cc2ffa72436a1f1fb0e38459ecfb0ad0f5e3ed9e8f",
            "6cbc5a602084f475b7f257b54783f67a28fe750b20812be80d205cc7d311eb96",
            "335a22cf21599aef9b8e759984b1bd484845f6e11687c093f35353e93512dfb1",
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
        "odd_widths": (
            "43ec5bca80a8ef1dffc6fc25afdcd063bae779030419111764e9907e9ea39f4a",
            "4b711af9f06f827ce237a5acedffd77de2315fe015687a6363de4cd14e306a7f",
            "6cbc5a602084f475b7f257b54783f67a28fe750b20812be80d205cc7d311eb96",
            "44a7fd0f31b203994cb868088aab58c9c662107a41a3cd7adea029ba3ef4dc8f",
        ),
    },
    "Katmai": {
        "default": (
            "f8146d0c6d2e9a49700a3b480ba255aa44d521fd708ceadc1fd9e412bcb99e5b",
            "842f925c4a728611eb4e706cbe49559835ba262aff90f65d9a11a3861ca4ebb7",
            "158290753eaf88898702b5e51bdb0844b861fa43b6fa8e1866cb7561eb82b8a5",
            "e6a6c70b3ea453996c96d13555df26b48a27753c2bb75f1687cdbffed969d006",
        ),
        "unbalanced_finetune": (
            "f8146d0c6d2e9a49700a3b480ba255aa44d521fd708ceadc1fd9e412bcb99e5b",
            "5c71010926d634ddd4db6dcf5e3a2255496cdb83f0f82ee8de8452240cc150c2",
            "158290753eaf88898702b5e51bdb0844b861fa43b6fa8e1866cb7561eb82b8a5",
            "53e61d172be284977ab5d6ed99e463d203a54d8219a1700a4c952cfcf52f61be",
        ),
        "fedavg": (
            "5b589605a3a9cba231407b1aaff5dd4f922897a09e707de974ebcb331341a339",
            "7e54edcdf81a484021e1f2365062265600b4204fe96a469fe338c4d32cf54de8",
            "51c7fc8c06d374d4223a16457d8b417655bb812454889175d723feee44a5be5c",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        "odd_widths": (
            "43ec5bca80a8ef1dffc6fc25afdcd063bae779030419111764e9907e9ea39f4a",
            "9ed05660fe80d50aa4fe441c2c1686e7d2befe19ecb8cd78b1cf2be1a550d0be",
            "6cbc5a602084f475b7f257b54783f67a28fe750b20812be80d205cc7d311eb96",
            "3d299542696fd1cc7ad1af975ed21f5811d1e90e6af9e5672c02ff59ff8559f3",
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

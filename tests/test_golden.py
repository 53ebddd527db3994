"""Golden CLI output: the SHA-256 of stdout for a fixed set of commands.

The digests were recorded at commit d287808, before Psi2, beta and the
plus-graph summary were rebuilt on one profile census per q, and were taken
with PYTHONHASHSEED=0: at that commit the edge order of DOT output followed
set iteration order, so it depended on the hash seed.  DOT edges are now
written in vertex order, which at that seed gives the same bytes, so these
digests hold under any seed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invgen.cli import main

GOLDEN = [
    ("classes --q 16 --format json",
     "a8f42c957836ee917ffa0a88afa2cf1c0532b33c3d97f5598702ded165affcc5"),
    ("psi2 --q 5 --format json",
     "a7e2a8b7e1a133a439ae0107686e2fee0b2fac938bae25fb18c02cf14fb8091a"),
    ("psi2 --q 5 --format csv",
     "1faf0306001fd314096dca9c6a4fae1087cdfb7cf9f73ba8229263528749d9d8"),
    ("psi2 --q 8 --format json",
     "f69eebf66de733ef15479c5a3478ccf419040b0590099dcfa8cabd7a3dcd76fc"),
    ("psi2 --q 8 --format csv",
     "74fc3c03f3d8eb75cb78b5c4d997879916899185592f53b31634fa0c1757e848"),
    ("psi2 --q 13 --format json",
     "f16b2a1d10f1793dfb3032f5c00278bb6814e6393045bec0a157296e49a8052f"),
    ("psi2 --q 13 --format csv",
     "a608e46c8e8bdd3f44ce9e77b88c1f79a8fc2c92244f7d2c3c3bbe7e38171f62"),
    ("psi2 --q 25 --format json",
     "a09cf38e379ee71f835a98ebeadedeea219326a4baebc26b93f38ca802f19bdf"),
    ("psi2 --q 25 --format csv",
     "5c3cbaf9ef1c78e9db0163707c763dcd3db934fd1dd4b9ad5ae6924a5307a097"),
    ("psi2 --q 7 --method both",
     "a28e542ba58caa79a944e3018bd444fd46b1943a65afab82df73d5468ba916af"),
    ("graph --q 7 --plus --format dot",
     "c490515507b9eee1a14964cd3f70c7092fb67d3db9bc6c8e363728ae54cec836"),
    ("graph --q 9 --plus --format dot",
     "62b6b1d22371e0f02b868b4c3cdde9e47d040d03b5145721070539c4762d865c"),
    ("graph --q 5 --power 2 --plus",
     "532b7aab106c4ba92434ee3408782cd87b6acb88b73321e472d68912d187defa"),
    ("beta --q 7 --format json --orbits",
     "f255e1c68af4ae0b156fb9537fb064fedec430ae44ba35d4c9040e395c1e4b7a"),
    ("beta --q 25 --format json --orbits",
     "4c458d77e1beb5462be4c5c048f444c54b7c379ce8e93e6e46e073ec61191714"),
    ("beta --q 49 --format json --orbits",
     "6f57eac3a65bf669a8ba49406e13709e0dc87c624f59660e476aec5b0119da06"),
    ("beta --q 64 --format json --orbits",
     "77fae89a2e2ab99824568947d587c69a9c64d43216062d403d9869f71fc141e0"),
    ("beta --q 9",
     "8c88f2650c062a8d9727a4a1862868139344e2b5e3cb9b8432e95ad4f0cdf66d"),
    ("verify --q-range 4..32",
     "10c98fbc012dcc616397e6e4d9f2ebbf2fe933b4ae025ec895f3c4282cffc46e"),
    # recorded at commit 256da34, before the graph analyses moved to bitmasks
    ("graph --q 13 --power 3 --plus",
     "39cef47ce79e961dacb43ef76a190cb378849d556b7dff846622feb4b06069bf"),
    ("graph --q 256 --plus --format dot",
     "b12abcebe9396241db55737f1f2958ea29c186b2270d0c0b10224c2a1a1c963d"),
    ("graph --q 8 --power 2 --plus --format dot",
     "e26a303172e2207d8691119a5e100a3cd6d934da5eda1db0a7461a2e204705cd"),
    # recorded at commit babc304, before Psi2 text was written one label
    # block at a time; the q=1024 CSV digest is the one perfbench checks
    ("psi2 --q 1024 --format csv",
     "403e707a52eaaef705d8a99ba28825926db6b99cad9148b79a4032bb88352127"),
    ("psi2 --q 256",
     "0f6e8391533afedb424647c3741d27100e102f269d59ad4ec099f0ecb801a7ac"),
    ("psi2 --q 16 --method both",
     "c98413983be3b4f2123650909bc330f0e1217b75394d5d312572d0b562533a0c"),
    # recorded at commit bcbd31a, before beta --orbits and the power graph
    # shared one least-image orbit naming
    ("graph --q 7 --power 4 --plus --format json",
     "41bc0322bb9eb38186cca813be9377cc93c8b7103958989ec09b4b470cc59c1a"),
    ("graph --q 13 --power 3 --plus --format dot",
     "52a9d957830f7a3555966e8377fcf60f6950b27070c8dda5d4b0216f2defe53f"),
    ("beta --q 256 --format json --orbits",
     "e637fdf9fb383379ea4027294b1961cce4924da147ca257a06376dc5862db4f3"),
    # recorded at commit 412c7e2, before the rules ran once per class
    # signature, the inventory read the exp table, the Aut(S) maps held only
    # the labels they move and Psi2 JSON was written one label at a time
    ("verify --q-range 4..1024",
     "92b390352728b01ec8ff38143125cd1b20121eea5f6984600048e80063b13cdc"),
    ("classes --q 1021 --format json",
     "597c9945e9166cc59054b2b1654b388dfe958059eed02dea52b991ecd19ab544"),
    ("classes --q 961 --format json",
     "f6af07304ebcfdf4e65c5c6920d994214561ad7cea8e4823be9d268e5222c798"),
    ("classes --q 1024 --format json",
     "7bca717c13a78e597914c1e9358d3d1d2544a420d2bf6913fe5ca94e8c3c65ed"),
    ("beta --q 729 --format json",
     "6c1828f33a45fd44421ab25f5a3ebb85772dd67aa483f15772b65946ea794a0e"),
    ("psi2 --q 256 --format json",
     "160c25153a55b016e9c39bcb127bc8aa6f0085258a17869101ea768f1f9e50f1"),
    # recorded at commit acb99ca, where fields above q = 4096 multiplied by
    # polynomials instead of exp/log tables
    ("classes --q 8192 --format json",
     "3d107d31bd3790f784dcb29ae6809cfcf4ea709a977bbfcd0f6fa481ce8e02c1"),
    ("classes --q 6561 --format json",
     "bdee1040c5e4f78e530de6f16e5b73a3a8a529e6c7e46211e7c8f1fcee7974c8"),
    ("classes --q 10201 --format json",
     "f81e9809e74d5638b650e9803ab71ce6babd9622e35a4980deacbcfcbb6eb305"),
    ("psi2 --q 4099 --format csv",
     "311ad1cc7d2b76ac30f8e1773e79fd0754fb03a1f37cd5e13798e55aa73d5c55"),
    ("verify --q-range 4096..4200",
     "27c7c396c6e06a6f4cc13f7d39bc36732798fc7f60892a6f983f8aba00c8d56a"),
    # recorded at commit 8c9227b, before graph JSON was written one row at a
    # time and the graph analyses ran once per twin class
    ("graph --q 9 --format json",
     "86193dc2b609139ed184891cd877bb2da0de13fb3f40d55856aed4c19bea1e97"),
    ("graph --q 7 --power 3 --format json",
     "3993b767851c78747fbe8442688cbe88de23c134fcddb6ab55955247ad9342a4"),
    ("graph --q 8 --power 2 --format json",
     "89a1a09e6f31715e9e426575f3d813b8f17290524b35c31193bdf28daaa34178"),
    # recorded at commit b4db116, before characteristic-2 fields walked their
    # powers by shift and XOR, trace keys came from the rotated exp table and
    # the torus fold read half of each walk; "verify --q-range 4..1024" above
    # still gave its digest there
    ("psi2 --q 729 --format csv",
     "27ec141b2560279a4501563d96e233f3205651ae057d0c8e97da00da791e0dca"),
    ("classes --q 1024 --format csv",
     "4605be952a466deed879e87cd1a00f8a033a277bba6258866d28ae00312342e5"),
    # recorded at commit 9281f5a, before the oracle decided one class pair
    # per pair of power classes; at q = 9 the two unipotent classes are
    # separate power classes
    ("psi2 --q 9 --method oracle --format json",
     "dede7a5a960575e4d4a32c0c873d352d9cad0c8bee792977ec7cead0b0c6ba21"),
    ("psi2 --q 19 --method both",
     "b8818c4873686e0e121e8bc74a76be23a79b210f5f2bea04a6b0c2a46dceab25"),
    # recorded at commit 4f4f7c4, before odd extension fields added and
    # negated through the Zech and negation tables
    ("verify --q-range 4..31 --extended",
     "b7101bd2f3c2006a357a4021c9e567c6ea98f50c136822da9848ece21838d52f"),
    ("psi2 --q 27 --method both",
     "fda3f7ca8a3d3c8d67762798d478a430114bafd69b97f543906ac9bf7c81af6e"),
    ("classes --q 625 --format json",
     "33c287ec4b5569ab59384cc7a561c6c9126f92e2d301271f6783090b14294892"),
    ("classes --q 343 --format json",
     "9187d956bf8a007b133a500a95f288dd1f7116f5a12b023b8e3fd17a43480527"),
    # recorded at commit 82357df, before odd extension fields built their
    # power tables in norm blocks and the generator search shared squarings
    ("classes --q 2187 --format csv",
     "c74f9db918d19089a65ec1bef9c78954c0962752505bd1dbacf893ce2580b297"),
    ("classes --q 2401 --format csv",
     "008f0404d3c894e520efdf5611ddc8ea293aa34a016f4a7eff3289532691d1f0"),
    ("classes --q 3125 --format csv",
     "44b1c0ce5359c079176274ae60eb0777c420e69f3f673b9513b4e31088eb326f"),
    ("psi2 --q 243 --format csv",
     "c960da78055ee4e77504f15f07ab726a412920dabf93f275abaf581d9f68cb11"),
    # recorded at commit 5737c4c, before extension fields found their
    # modulus and generator on packed ints and the inventory read the field
    # tables inline: every extension field of 4..1024 not pinned above
    ("classes --q 4 --format json",
     "a018d2363dad102b46ebb2e0424f64e70ed63c1d3ff75eba9d733e1802358952"),
    ("classes --q 8 --format json",
     "30ef36db7ff542a58324dd1d37b9c582b78ced2b89416ec70f46458eacc26b44"),
    ("classes --q 9 --format json",
     "6d17d169f25aa849fdeb414cca35d9c8b82c3a0633d13aebeed9660b7b1d1856"),
    ("classes --q 25 --format json",
     "cb59514fbcaea6bbe5671727326b1fbeb64d6332c57d3d376ae8b7af6de425db"),
    ("classes --q 27 --format json",
     "13269f484ad479cd7035c6c046f8fb83ea10b1f5b65b5bbd02a4202a9bc71e79"),
    ("classes --q 32 --format json",
     "38b22eabbaf82ba2d52c033606d3669ccdd968d7e65c9148b291b6a3fa8fb782"),
    ("classes --q 49 --format json",
     "a6534fcfd39a9a83f562d0879c2a4f3ce25b99861c1e36db38ef72c5eb695278"),
    ("classes --q 64 --format json",
     "309174a3521b45d32d48080883c008fbf0849f7125af6f70e7f15c7f997580bf"),
    ("classes --q 81 --format json",
     "e8e644028267c74aaf0ee91f771f28580bfb40146947a5346dafe3da21768ef9"),
    ("classes --q 121 --format json",
     "c6f7ea7c21c4f49b263465d910654e9c7f7b6ac86723df33917f76a1c77b6cc3"),
    ("classes --q 125 --format json",
     "f028d849e0450af85fb66669d345dffd5c58a74b7001991d18c9c0853337f2c8"),
    ("classes --q 128 --format json",
     "a0f3a1fa9d4d0a6b68918b32d72ec8a9ae9e158d9ce80480eb835b2291756d80"),
    ("classes --q 169 --format json",
     "98c579ea12dd7ec1b59f5293f2e7096d99b8828d36e991c2122c543715abcec1"),
    ("classes --q 243 --format json",
     "39577379a7459c0c9b2f3ea340060bebda797baf4582b1a9c19fb47d82a93e41"),
    ("classes --q 256 --format json",
     "8db332c9e34f5c61448c5a2f8ea38aace6f9ef93be4dafe37e0bcb075ce0e921"),
    ("classes --q 289 --format json",
     "e8f97612fb063425c2f1a7bd3ec8f682eb70a2f95bc2facf189d99e2a5497bbf"),
    ("classes --q 361 --format json",
     "06cc34773c826f4f01407b2764185f6dda57d8dabdd7209af180aa6f2df9d7a2"),
    ("classes --q 512 --format json",
     "aa16ab3e62900b0c1d97f1b13de7513c4b70917297a8828881f944cb4a444ff9"),
    ("classes --q 529 --format json",
     "f11cad51ec1c25fbb150a4f0bb5508069bbb760d1b4e933dd14d6f771fd16a6a"),
    ("classes --q 729 --format json",
     "821c80a2cf990b8daeb1ae740be8cd553afcc62bb45858804ab51081f7558b84"),
    ("classes --q 841 --format json",
     "8c24c6245d983b879646d0773e22ad84ed359a9eed64105438eb474d92855d86"),
]

# The graph summary goes to stderr; it is the only output that carries the
# component count and the diameter.  Recorded at commit 256da34.
GOLDEN_SUMMARY = {
    "graph --q 13 --power 3 --plus":
        "q=13 t=3 vertices=343 edges=5676 components=4 bipartite=True diameter=3",
    "graph --q 256 --plus --format dot":
        "q=256 t=1 vertices=255 edges=16256 components=1 bipartite=True diameter=2",
    "graph --q 8 --power 2 --plus --format dot":
        "q=8 t=2 vertices=48 edges=252 components=2 bipartite=True diameter=3",
    # recorded at commit bcbd31a
    "graph --q 7 --power 4 --plus --format json":
        "q=7 t=4 vertices=48 edges=192 components=3 bipartite=True diameter=2",
    "graph --q 13 --power 3 --plus --format dot":
        "q=13 t=3 vertices=343 edges=5676 components=4 bipartite=True diameter=3",
    # recorded at commit 8c9227b
    "graph --q 9 --format json":
        "q=9 t=1 vertices=6 edges=2 components=4 bipartite=True diameter=2",
    "graph --q 7 --power 3 --format json":
        "q=7 t=3 vertices=125 edges=96 components=92 bipartite=True diameter=2",
    "graph --q 8 --power 2 --format json":
        "q=8 t=2 vertices=64 edges=252 components=18 bipartite=True diameter=3",
}

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_matches_golden(capsys, command, digest):
    assert main(command.split()) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if command in GOLDEN_SUMMARY:
        assert err == GOLDEN_SUMMARY[command] + "\n"


def test_dot_output_is_independent_of_hash_seed():
    # at commit d287808 these two seeds gave different edge orders for q=9
    outputs = set()
    for seed in ("1", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "invgen.cli", "graph", "--q", "9", "--plus",
             "--format", "dot"], env=env, capture_output=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1

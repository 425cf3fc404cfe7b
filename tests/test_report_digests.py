"""Pinned SHA-256 digests of every file ``torusfs audit --suite all --seed 0`` writes.

The digests were taken before the audit loops were folded into shared
helpers; a change that is meant to leave every report unchanged must keep
them.  ``SUITE_DIGESTS`` pins the single-band and local-energy suites at
``--trials 3 --seed 5`` too, taken before each band symbol was quantized
once per audit.  ``EXPERIMENT_DIGESTS`` pins the growth-experiment reports
of small ``torusfs experiment`` runs, taken before the mixed-norm evaluator
transformed each band in row blocks.  Floating-point results can move with
the numpy or scipy build, so the tests skip on any other version pair than
the one the digests come from.
"""

import hashlib

import numpy as np
import pytest
import scipy

from torusfs.cli import main

GENERATED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

DIGESTS = {
    "audit-cube-tail-0.csv": "b50b0200c366af88ff8eb766a2f67b90e767efd41beb79058873d965b3e81548",
    "audit-cube-tail-0.json": "278fc2384c8c9cbd6bb62c1a7aba0388fe4d4069c95f88563bece56a8fcae7bf",
    "audit-cube-tail-1.csv": "3aa6d1b82f1f9bdf82e85bcaf3fa43a38dbcc97ae13e436e6a6cf71337fb437b",
    "audit-cube-tail-1.json": "c64bba560834d152c34c7ca091082a577ae5daf64ddb6cf8ad21e8d439873b2f",
    "audit-fefferman-stein-0.csv": "2ee574fbb12a14ded5b4b81ea6fb98905605a53fb12088397bfdd542fb4650e6",
    "audit-fefferman-stein-0.json": "3bfb6f042980e10a9e7c8b25590cafdf334ef92b0871310696c0eb62bb62e806",
    "audit-fefferman-stein-1.csv": "edb41bd7f156fc7fb770d0fd3d363d5cd9da5f5749e853b7d30a2d7d7d02a9c6",
    "audit-fefferman-stein-1.json": "422dabbd719ead5bf20e28ea90be80afad3a328ecfa8a428fc523b4b8b0d3990",
    "audit-fefferman-stein-2.csv": "d8ec446cf759c8c3519b3a7ab2ebad4980a786ff6cf71070960142264eeabc33",
    "audit-fefferman-stein-2.json": "eee706a79647c10562110b5264945bc165912264ba59fc50a58bdb2616f2ff31",
    "audit-fourier-series.json": "f6f3a0dddadf6177115b0cc06fbf4bbeb5b288c3bc4b3b4edf0dca8ae1e6d358",
    "audit-frame-0.csv": "a55477b26820053bb77ab2700f2e421250a5a36f6128875cb1b738366450c73f",
    "audit-frame-0.json": "56bece2c5f019f856816b1bd0ed047ce327f4988c420bb69a32b396b2320bc9c",
    "audit-frame-1.csv": "bfa60e18e6640c3faf3cad9d72b485aa72a2dda768d394738828207efce9f0bb",
    "audit-frame-1.json": "3616ef7543183bc2ad462d17633141c878730683bdd9eaa31e3f27dfa307f7b9",
    "audit-frame-2.csv": "537bd20913d869b0937eb3cea68949471ad6aec9eb04b759874a3e7567ff6a59",
    "audit-frame-2.json": "ed248bcaa74fec1def1d3c9d4220a0a9fceb54d60c624282f3a58d084a633388",
    "audit-kernel-0.csv": "50c0cca85261654a19f0641449623169c5d2061a74ab414d1466313ea1a2dcfd",
    "audit-kernel-0.json": "2d99fefb60349731480d3b66beaccaab036b2f6bbf334ca8d32823b62ca7c7fc",
    "audit-kernel-1.csv": "e94d2283783bba37764efde0426225f333b9a1e7cd4559ccdfaa4018a84efbaf",
    "audit-kernel-1.json": "3f2aeb65d555c6b7765a7f940ff044c65516071d6b3491f872d001fff45d2e4e",
    "audit-khintchine-0.json": "be8e40d35b0bc6db4f8965b53969c9a49b3a3e6d72a86ac65758f946fad1174b",
    "audit-khintchine-1.json": "2db24c787045527cf31f8cb72f323045af32f34708995e34ab43f5502e2b8f0a",
    "audit-khintchine-2.json": "3e1184d468ea39c8247d0dee9a2e3f4d6984a613ecc0ef0c4d934c393b845f9f",
    "audit-khintchine-3.json": "b1533a47f99ead28574332643358ad10a05ce199b843a20ee2ce6b582259b4f5",
    "audit-local-energy.csv": "8a5f679699dcc069f4cbc57c747623091c74a18c9c1a52ac5c7f2d031e68847f",
    "audit-local-energy.json": "2cbec946596fb1e5fd48d86fd99d33cb8a8b98afda24e21024e9dfa671d09f42",
    "audit-partition.csv": "dd51b386b69cbdfa25c2cf8be80bdd1c51e2df850a82e7bf8f49b84a666dfcbb",
    "audit-partition.json": "1f14c6e679899f87c80ebd477fff4f621dd1fb5d3a179a7b8321cca0bf659c1e",
    "audit-peetre-0.csv": "6a557dd07533ad9a4b48ff5e1f70761536897390a74481e49901655222905795",
    "audit-peetre-0.json": "929b5efc88baafc39466ad8e8d98d8c320237bed1528dad33d490d38d8cf9d19",
    "audit-peetre-1.csv": "a0f785ec2053bcd353bba873610ef4389606276efa4c93272ea855460d743c46",
    "audit-peetre-1.json": "efb3e30b810b33b59f1df2d192eb40d9c9ff47d978ac3d1255ebb1113b7a7cad",
    "audit-sharp-domination.csv": "5477afb6dd8983bc8b347542f3887eaada2dacf5c472a355595581f14e268368",
    "audit-sharp-domination.json": "fe9e5d8ec1be9a25577572c3a3328e04e960473924ff50bec6dcbee5f10f456d",
    "audit-single-band-0.csv": "770b87ac8ec72b16963b1fd42d860498347aeac526bcbd028b3e128fc93ec0c9",
    "audit-single-band-0.json": "0bd815210325ab3c13a9863dad5b075595223345a6ced2488707710e95e0f02c",
    "audit-single-band-1.csv": "041062b208acaa865ea9041bb1a3a442b3c16144c738c1ef4e0b8ffa772d4552",
    "audit-single-band-1.json": "9f5060ef602aa7816e6917765c56715721ddbc91592ea2bd49ebe59102ca2fa5",
    "audit-single-band-2.csv": "f875b780e3f01f988b478bd3910354abb6d839d9c342f8e7ed805f3538904c1e",
    "audit-single-band-2.json": "6fd0cb3f56c186a6c1f7d6b984c20196d3809ba4a72317506ebec5ec82f9044b",
    "audit-vector-maximal-0.csv": "48aaccf74c400a7423534034ab7b189e08f71060f4dc4589530ee337dc204e5e",
    "audit-vector-maximal-0.json": "b02eb4c9433ac748927e36cc5c37ad68856105a6065cef874a54eb756dc64ea9",
    "audit-vector-maximal-1.csv": "24ad9c538d95b15898ba8ace538fabdf3405025935617b2e7f0ab0dde164b86d",
    "audit-vector-maximal-1.json": "7bbe88082b3a5d3d3185a16c006a2ca8334ce6b0754d2b2ec217622541b12cf9",
}

SUITE_DIGESTS = {
    "single-band": {
        "audit-single-band-0.csv": "770b87ac8ec72b16963b1fd42d860498347aeac526bcbd028b3e128fc93ec0c9",
        "audit-single-band-0.json": "b6299371d556ed429fae2e03cb0d7a9c197206fe9b49d6de49bc91ff34fd868a",
        "audit-single-band-1.csv": "041062b208acaa865ea9041bb1a3a442b3c16144c738c1ef4e0b8ffa772d4552",
        "audit-single-band-1.json": "e58697a19dc10706126e50936bac5013f5da9ada3eb9eb7ae4c255808350adf1",
        "audit-single-band-2.csv": "0e557c9f2bb1135eb57651179b5928123c869a270ad7a587e8229f23a6c91476",
        "audit-single-band-2.json": "23245269fe1c5e0253b0ea5082c84d82f017d9fb17ecd6284c3bef25b16db279",
    },
    "local-energy": {
        "audit-local-energy.csv": "8d32e34292e416b7c5552ada11bb880d600fec9e18fa651abae0665ae8a870ef",
        "audit-local-energy.json": "4695d81b5a295b39a1c9429b189e9e096df3caf9b88ef65789f7d519b62e0475",
    },
}


def test_audit_all_seed_0_reports_match_pinned_digests(tmp_path):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != GENERATED_WITH:
        pytest.skip(f"digests were generated with {GENERATED_WITH}, running {versions}")
    assert main(["audit", "--suite", "all", "--seed", "0", "--outdir", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert sorted(written) == sorted(DIGESTS)
    assert {name for name in DIGESTS if written[name] != DIGESTS[name]} == set()


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_pseudo_suite_reports_at_trials_3_seed_5_match_pinned_digests(tmp_path, suite):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != GENERATED_WITH:
        pytest.skip(f"digests were generated with {GENERATED_WITH}, running {versions}")
    assert main(["audit", "--suite", suite, "--trials", "3", "--seed", "5", "--outdir", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert written == SUITE_DIGESTS[suite]

_FSPACE = "e47bc271bef80b1a47c3726fa2c1fcfa0845ce3537272d1b456321325612b696"
_FSPACE_P15 = "95b6eafd1b701b2d76fd561aef33b6958097f9bbd6da8c5b14cf34c90cd7e9bd"

# the CSV does not depend on the worker count; the JSON echoes it in its effective config
EXPERIMENT_DIGESTS = {
    "fspace-growth --workers 1": {
        "experiment-fspace-growth.csv": _FSPACE,
        "experiment-fspace-growth.json": "16fd3a9201e50c535ca848ff7751b83e7195862d70495f238f6c60fc5ee58d82",
    },
    "fspace-growth --workers 2": {
        "experiment-fspace-growth.csv": _FSPACE,
        "experiment-fspace-growth.json": "8f8dcba81cae100600e63dbd52764b84eef1d64c82693761cd7075140107d967",
    },
    "fspace-growth --p 1.5 --q 1.5 --t 1.0 --workers 1": {
        "experiment-fspace-growth.csv": _FSPACE_P15,
        "experiment-fspace-growth.json": "9ed44ce74a609c28bfcacc8fd3381202a0c4cb910e0162be8e35bae50327b457",
    },
    "fspace-growth --p 1.5 --q 1.5 --t 1.0 --workers 2": {
        "experiment-fspace-growth.csv": _FSPACE_P15,
        "experiment-fspace-growth.json": "7619a598071a04cb32ccee468a62acff9c4788983882be395aaa317e0b93c4be",
    },
    "bspace-growth --workers 1": {
        "experiment-bspace-growth.csv": "ccb7c5117065a739691dadc288d3aecc5d68c61d09ec1903d9c2b1a72de4ee90",
        "experiment-bspace-growth.json": "574703326b0f1c5ddc4aad9ca44bd3831cc4b41d7e72aaada2ec45bc12ce53a4",
    },
}


@pytest.mark.parametrize("args", sorted(EXPERIMENT_DIGESTS))
def test_growth_experiment_reports_at_draws_4_L_3_6_match_pinned_digests(tmp_path, args):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != GENERATED_WITH:
        pytest.skip(f"digests were generated with {GENERATED_WITH}, running {versions}")
    name, *flags = args.split()
    assert main(["experiment", "--name", name, *flags, "--draws", "4", "--L", "3..6", "--outdir", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert written == EXPERIMENT_DIGESTS[args]

"""Every suite's JSON report, with and without --perturb, is pinned to its
bytes: a rewrite of a suite or a kernel must leave the reports unchanged.

The ranges are the small runs of tests/test_kernel_faults.py (zero-modes,
which has no row there, runs at its defaults).  A digest changes only
when a report does; an intended change of report text updates it here.
"""

import hashlib

import pytest

from symvertex.cli import main

# (id, verify argv)
SMALL_ARGV = [
    ("reordering", ["reordering", "--cases", "MM,LL", "--pi", "[2]",
                    "--window", "0..2", "--test-degree", "3"]),
    ("zero-modes", ["zero-modes"]),
    ("clifford", ["clifford", "--degree-bound", "3", "--mode-range",
                  "-2..2"]),
    ("multivertex", ["multivertex", "--pi", "[2]", "--pi", "[2,1]",
                     "--m", "2", "--window", "-2..2"]),
    ("theorem2-oracle", ["theorem2", "--pi", "[1]", "--pi", "[2]",
                         "--pi", "[1,1]", "--max-weight", "3",
                         "--skip-vertex"]),
    ("theorem2-vertex", ["theorem2", "--pi", "[1]", "--pi", "[2]",
                         "--pi", "[1,1]", "--max-weight", "3",
                         "--skip-oracle"]),
    ("inverse-series", ["inverse-series", "--max-sigma-weight", "2",
                        "--max-zweight", "6"]),
]

# (id, perturbed) -> (exit code, sha256 of stdout)
DIGESTS = {
    ("reordering", False):
        (0, "1924ad418535e6d69f3c1a3b6d268e28885fe1e2ab36cedb26cbeb03989a1726"),
    ("reordering", True):
        (1, "2be2bda6feb037084f25d87a12b99c0ee635a2bd927bcf9e88e418521c9ecbe4"),
    ("zero-modes", False):
        (0, "251c2eac7c5ce2033c1042b447f6dd1e05152af9d9ae83af3efa45d3893df594"),
    ("zero-modes", True):
        (1, "aef3a90e342af84a63a442b7d341cd30c00a8b78ccaed514da0ea71ed092f153"),
    ("clifford", False):
        (0, "94a5139660a292fb4cec4319ac56a90d4e553014a9cb95eb80c4520efc58520c"),
    ("clifford", True):
        (1, "5b504d5ecf5f612066be7a33e096e017a95a10469100b6abd06a0ea04cdfe2e0"),
    ("multivertex", False):
        (0, "2af75f24228b4f43d9a7603ee5f34b7aaad01fb9e943b2786b80fffc81c8b3a7"),
    ("multivertex", True):
        (1, "61fb753880fe6d11ed74a21752247922b9ee8f3c0197f39f677baac825329c30"),
    ("theorem2-oracle", False):
        (0, "cb3f20bc794dd05f43fa6dae5a33610adf32599529f1269ed1958609d1bd7cbf"),
    ("theorem2-oracle", True):
        (1, "282269bc7deac7682501b1aac32afe905dcc9415d168ffc62b3e86d629d6ca0f"),
    ("theorem2-vertex", False):
        (0, "850d6a702b24aed749b1a4f9448120c0e59200ae0ba6b490d1c5043075be9b7f"),
    ("theorem2-vertex", True):
        (1, "263b715511b43ed61e151c497ee2ad2fe849757876e7a3fd5caceaa583acfc0a"),
    ("inverse-series", False):
        (0, "dfcb53f633235d6aa7f0544f3eb06528d62a395bedf10e10ac723549a4bcbe4d"),
    ("inverse-series", True):
        (1, "8da2a57bc977c1933719decc3df310f2ec71fd24c3a24d2e5ac501cddd778ecd"),
}


@pytest.mark.parametrize("name, argv", SMALL_ARGV,
                         ids=[name for name, _ in SMALL_ARGV])
@pytest.mark.parametrize("perturb", [False, True],
                         ids=["plain", "perturb"])
def test_report_bytes_are_pinned(capsys, name, argv, perturb):
    code = main(["verify", *argv, "--timing", "none", "--format", "json"]
                + (["--perturb"] if perturb else []))
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == DIGESTS[name, perturb]

"""Pinned sha256 digests of CLI outputs for two fixed configurations.

The digests were recorded from the per-tick-object implementation that the
columnar tick core replaced, so they prove that every output byte, stdout
line and strict-violation message survived the refactor. A change that
moves any of them must re-record the digests and say why.
"""

import hashlib

import pytest

from mbm.cli import main

CONFIGS = {
    "ar1_positive_coupling": {
        "simulate": (
            "[simulate]\nlength = 3000\nseed = 11\nprice_model = ar1\nbase_price = 10\n"
            "phi = 0.3\nsigma = 0.05\nvolume_model = lognormal\nmedian_volume = 50\n"
            "log_sigma = 0.4\npv_correlation = 0.3\n"
        ),
        "window": 50,
        "sliding_window": 25,
        "vwap_mode": "disjoint",
        "autocorr": ("market", 1, "disjoint"),
    },
    "iid_negative_coupling": {
        "simulate": (
            "[simulate]\nlength = 1500\nseed = 5\nprice_model = ar1\nbase_price = 2.5\n"
            "phi = 0\nsigma = 0.2\nvolume_model = lognormal\nmedian_volume = 3\n"
            "log_sigma = 1.0\npv_correlation = -0.6\n"
        ),
        "window": 7,
        "sliding_window": 4,
        "vwap_mode": "sliding",
        "autocorr": ("frequency", 2, "sliding"),
    },
}

GOLDEN = {
    "ar1_positive_coupling": {
        "simulate": {
            "exit": 0,
            "stdout": "2ec098f21703bec7c14601c87741a342db216f50d5fa74bae335d77ebaa81808",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "2e02ba0527822b4bac3e92a9ed7a9c73578a51dce184026d375df13c9cb0811f",
        },
        "moments_disjoint_market_k4": {
            "exit": 0,
            "stdout": "7c865e521bbc0b77e56b3a74de0c3dee45630898063732c18d521b84a8c0c690",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "af801e87893456f0df5c9bfd5c4f98e726be385eb0ab768f725bee9dc986ba45",
        },
        "moments_sliding_frequency_k3_strict": {
            "exit": 3,
            "stdout": "5ac06756c24847b1ee9c1d85f3856ba13bfb265806ff06452ad76133d364838d",
            "stderr": "fc4f0c87e16d6da38ea3fb2b8d7b6075e61ce4fcc408bfa61e0581f6bccab021",
            "output": "601d892a55dc054f580be4b93e3619ecb2536ced452a13aaa46355adee92c315",
        },
        "vwap": {
            "exit": 0,
            "stdout": "def61a09d61fc19100bccdf62ef6e7bb45f22d2a5bc0d6c70a4b4753e46aaec4",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "b30c696e5ad6b5957cb5c6edd6efbed7e2cb63c56d4084e1a6774fd6b50f9143",
        },
        "autocorr": {
            "exit": 0,
            "stdout": "ae31769c262d021a8812c2d4e27da62929ee23ddc74179088b6b7118a72a14cb",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "1c18ecf5c5449fa8ab7d802fc6b3d92872e83128ced367b28ccf4b652c50557e",
        },
    },
    "iid_negative_coupling": {
        "simulate": {
            "exit": 0,
            "stdout": "ee2ae639c6a170870c4909a77bb8026026ab022fa496af712938d3ce7a33bf14",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "2e7f52ea71319e3d35d7996185fb9ceeef549a30ea239167efdfea288835d411",
        },
        "moments_disjoint_market_k4": {
            "exit": 0,
            "stdout": "68052a163ca5820542ffc5b919c9169007494da4e11c57a74051855f7a7114c3",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "d31d335e50448eca941e7cdef9dfda068a01b10aa593efc8d96892a1452f5f80",
        },
        "moments_sliding_frequency_k3_strict": {
            "exit": 3,
            "stdout": "a692166d94954ad74d3cd2206aa477233131a45c99b4defbf43d956924be9e63",
            "stderr": "185711bb700dc6271dd28de87278b91b0f1dc2e4e3673dbb841a66e5e666935e",
            "output": "41c28de91a4395c7a584674c3e7b603256e12a9221f0add75033906b643e1540",
        },
        "vwap": {
            "exit": 0,
            "stdout": "15431d0e6619ef6c64d326cb04ebaa2f187e8fa2e138087e259972b9b39bf102",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "25938495150a371789d502a22e110b60fe4c8f099b5a5f82ee54a0fad216cf97",
        },
        "autocorr": {
            "exit": 0,
            "stdout": "068d59370a552b3d7afa46394551a3f229c10f6115fe44c65ffc7d60acdfef8c",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "output": "170a5c2b845a87a95dc380455260a986aece3b1a653b1ddc48975332b85df93d",
        },
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(tmp_path, capsys, cfg: dict) -> dict:
    """Run simulate, moments (disjoint and sliding --strict), vwap and autocorr."""
    digests = {}

    def run(name, argv, output=None):
        code = main(argv)
        captured = capsys.readouterr()
        digests[name] = {"exit": code, "stdout": _sha(captured.out.encode()),
                         "stderr": _sha(captured.err.encode())}
        if output is not None:
            digests[name]["output"] = _sha(output.read_bytes())

    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(cfg["simulate"], encoding="utf-8")
    ticks = tmp_path / "ticks.csv"
    run("simulate", ["simulate", "--config", str(sim_cfg), "--output", str(ticks)], ticks)
    src = ["--input", str(ticks)]

    out = tmp_path / "disjoint.json"
    run("moments_disjoint_market_k4", ["moments", *src, "--window", str(cfg["window"]),
                                       "--order", "4", "--method", "market",
                                       "--output", str(out)], out)
    out = tmp_path / "sliding.json"
    run("moments_sliding_frequency_k3_strict",
        ["moments", *src, "--mode", "sliding", "--window", str(cfg["sliding_window"]),
         "--order", "3", "--method", "frequency", "--strict", "--output", str(out)], out)
    out = tmp_path / "vwap.csv"
    run("vwap", ["vwap", *src, "--window", str(cfg["window"]), "--mode", cfg["vwap_mode"],
                 "--output", str(out)], out)
    method, lag, mode = cfg["autocorr"]
    out = tmp_path / "autocorr.json"
    run("autocorr", ["autocorr", *src, "--window", str(cfg["window"]), "--mode", mode,
                     "--lag", str(lag), "--method", method, "--output", str(out)], out)
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_outputs_match_pinned_digests(name, tmp_path, capsys):
    assert cli_digests(tmp_path, capsys, CONFIGS[name]) == GOLDEN[name]

"""Pinned sha256 digests of CLI outputs: the tick commands on two fixed
configurations, and the model-layer commands (density, price, optimize).

The tick digests were recorded from the per-tick-object implementation that the
columnar tick core replaced, so they prove that every output byte, stdout
line and strict-violation message survived the refactor. A change that
moves any of them must re-record the digests and say why.
"""

import hashlib
import io
from contextlib import redirect_stdout

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


# Model-layer commands: density (both methods) on the first configuration's
# ticks, price for each scenario kind (the averse exponential one takes the
# bracketed fallback) and optimize. Recorded before the pricing kernel
# resolved its utility formulas once per solve.
MODEL_SCENARIO = (
    "beta = 0.95\nendowment_t = 10\nendowment_T = 10\nholdings = 1\npayoff_mean = 5\n"
    "payoff_variance = 1\nprice_variance = 1\n"
)
MODEL_SECOND = (
    "holdings2 = 0.8\npayoff_mean2 = 5.5\npayoff_variance2 = 0.7\nprice_variance2 = 1.2\n"
    "price_autocorr = 0.4\n"
)
MODEL_CONFIGS = {
    "price_single_power": "[utility]\nfamily = power\nparameter = 2.5\n\n[scenario]\nkind = single\n"
    + MODEL_SCENARIO,
    "price_two_purchase_log": "[utility]\nfamily = log\n\n[scenario]\nkind = two_purchase\n"
    + MODEL_SCENARIO + MODEL_SECOND,
    "price_two_sales_exponential": "[utility]\nfamily = exponential\nparameter = 0.3\n\n"
    "[scenario]\nkind = two_sales\n" + MODEL_SCENARIO + MODEL_SECOND
    + "payoff_autocorr = -0.3\npayoff_mean12 = 5.2\nT2 = 3\n",
    "price_averse_fallback": "[utility]\nfamily = exponential\nparameter = 2\n\n[scenario]\n"
    "beta = 0.95\nendowment_t = 10\nendowment_T = 3\nholdings = 1\npayoff_mean = 5\n"
    "payoff_variance = 1\nprice_variance = 1\n",
}
MODEL_SAMPLES = "price,payoff\n4.0,5.0\n4.5,6.5\n5.0,5.5\n4.2,7.0\n"

MODEL_GOLDEN = {
    "density_gram_charlier": {
        "exit": 0,
        "stdout": "beab6cce272e13e4d78ab26600b3ce3e09f83ccb59b04e8755d1491e2b62613d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "5e0485e7efc3dd9f4cb5b535f6d58fbb3bf8f16580ac5543a56eaa006ca120e2",
        "json": "61540eb0bbd1258319bb2db0f36141476dd26038866a79dd7935602a7ddbcd31",
    },
    "density_damped": {
        "exit": 0,
        "stdout": "1765fac0c9db11767de935eeb435f4945fa18f46113ae9563384e204ac09779c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "6055d0e7673c5503c0362e942de6e19067f5732403292769db73c9e37c894c87",
        "json": "c976b90e752ed2bc976f1c225d44998bcc814ce769ec2a3edf76d287df4499a9",
    },
    "price_single_power": {
        "exit": 0,
        "stdout": "7f2e2398bb2c05726b8b54f2041fa19c1d7f72b983581eb7278046bab3d1e733",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "json": "a2d53f95731f27f3a0094c4c72c50dd9edf7d7fbdc23521728fe061e7576e0ae",
    },
    "price_two_purchase_log": {
        "exit": 0,
        "stdout": "5318dc7f402026c321689cacda07585ab54e8761429f4f6e2a741ffd91c461ca",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "json": "245c830489bc0483953fed84405ff3f275e2f208295ed4bb755e02052375d095",
    },
    "price_two_sales_exponential": {
        "exit": 0,
        "stdout": "170e81dfbdc0e4906ae44b6e2499aa271db50f4d5754be0a590522cdf2bd15eb",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "json": "7b7ca12a0b18f637c6aa4df3635fa6b4e3215f245a45de84d5f5fa78b8159f78",
    },
    "price_averse_fallback": {
        "exit": 0,
        "stdout": "bf4430c52b1c1904b4b8f1426db27538ba214cd788339e8b82d41004f2173f61",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "json": "f3faae5ddecfa0149b6f28813fbe9b4e29d2079066805f98131319c317212758",
    },
    "optimize_averse": {
        "exit": 0,
        "stdout": "12e0f05fda4c8e20348fd9b0c4161c61a87f1d0931d2cd10aef4a27636197ee6",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "json": "07c36bf1dedb5ac5958d622a9f3869e9e72b52288da577cdd9cbe10429333aeb",
    },
    "optimize_power": {
        "exit": 0,
        "stdout": "092a0f4a0bbe3dc82084f6f9a3656bdc1223fbdc9c8d869d6872336c047796ec",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "json": "c95a6c1c6be948b85c7db85aa864568d1cd5bbd71c37e5d8ea0b99fe87527e84",
    },
    # re-recorded when an inadmissible bound became an input error naming the bound
    "optimize_power_inadmissible": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "2afe88acd51ba7eee0bb3d08b44c8075f216c2cea753c9dd2e1b6c50eefbcaf7",
    },
}


def model_commands(tmp_path) -> list:
    """(name, argv, output paths) of each model-layer run, after writing their inputs."""
    commands = []
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(CONFIGS["ar1_positive_coupling"]["simulate"], encoding="utf-8")
    ticks = tmp_path / "ticks.csv"
    with redirect_stdout(io.StringIO()):
        main(["simulate", "--config", str(sim_cfg), "--output", str(ticks)])
    density = ["density", "--input", str(ticks), "--order", "4", "--method", "frequency",
               "--grid=4:16:241"]
    for name, extra in (("density_gram_charlier", []),
                        ("density_damped", ["--density-method", "damped",
                                            "--damping-sigma", "2"])):
        out = tmp_path / f"{name}.csv"
        commands.append((name, [*density, *extra, "--output", str(out)],
                         [out, out.with_suffix(".json")]))

    for name, text in MODEL_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / f"{name}.json"
        commands.append((name, ["price", "--config", str(cfg), "--output", str(out)], [out]))

    samples = tmp_path / "samples.csv"
    samples.write_text(MODEL_SAMPLES, encoding="utf-8")
    optimize = ["optimize", "--samples", str(samples), "--lo", "0"]
    for name, cfg_name in (("optimize_averse", "price_averse_fallback"),
                           ("optimize_power", "price_single_power")):
        out = tmp_path / f"{name}.json"
        commands.append((name, [*optimize, "--config", str(tmp_path / f"{cfg_name}.cfg"),
                                "--hi", "1.5", "--output", str(out)], [out]))
    # hi = 3 takes consumption out of the power domain: an input error naming
    # the bound (exit 1), no output
    commands.append(("optimize_power_inadmissible",
                     [*optimize, "--config", str(tmp_path / "price_single_power.cfg"),
                      "--hi", "3"], []))
    return commands


def run_digests(code: int, stdout: str, stderr: str, outputs) -> dict:
    """The digests of a run: its exit code, stdout, stderr and each output by its suffix."""
    digests = {"exit": code, "stdout": _sha(stdout.encode()), "stderr": _sha(stderr.encode())}
    for out in outputs:
        digests[out.suffix[1:]] = _sha(out.read_bytes())
    return digests


def model_digests(tmp_path, capsys) -> dict:
    digests = {}
    for name, argv, outputs in model_commands(tmp_path):
        code = main(argv)
        captured = capsys.readouterr()
        digests[name] = run_digests(code, captured.out, captured.err, outputs)
    return digests


def test_model_cli_outputs_match_pinned_digests(tmp_path, capsys):
    assert model_digests(tmp_path, capsys) == MODEL_GOLDEN

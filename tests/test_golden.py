"""Golden output digests: the bytes of `offloadsim run`, `offloadsim cost` and
every demo, pinned.

Each `run` case runs through ``main`` and pins the SHA-256 of the aggregates
CSV and of the ``--records`` CSV. The cases cover both strategies, both
presets, fast, slow and parked vehicles, and beacon periods below, equal to
and above the registry timeout, and records whose id columns outgrow the
writer's memo. Each `cost` case pins its CSV, written to standard output and
with ``-o``, and the summary ``-o`` prints. Each script in ``demos/`` runs in
its own interpreter and pins its standard output. A change
that moves any digest changes behaviour and must say so;
``PYTHONPATH=src python tests/test_golden.py`` prints the new digests.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from offloadsim.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = _ROOT / "demos"
_DEFAULTS = _ROOT / "src" / "offloadsim" / "data" / "defaults.cfg"

_SMALL = "users = 4\nduration = 6\nseed = 5\n"
# Slow vehicles in a large fleet: picked cursors hundreds of periods behind,
# with rejections and lost forward legs, on both cells.
_LONG_LAG = "strategy = VCCFirst\nvehicles.count = 300\nvehicles.capacity_mips = 500\nusers = 4\nduration = 30\nseed = 5\n"

CASES = {
    "ecfirst": "strategy = ECFirst\n" + _SMALL,
    "vccfirst": "strategy = VCCFirst\n" + _SMALL,
    "partial_90kmh_400": (
        "strategy = VCCFirst\nscenario.preset = partial_coverage\n"
        "vehicles.speed_kmh = 90\nvehicles.count = 400\n" + _SMALL
    ),
    "partial_parked": (
        "strategy = VCCFirst\nscenario.preset = partial_coverage\n"
        "vehicles.speed_kmh = 0\nvehicles.count = 60\n" + _SMALL
    ),
    "period_above_timeout": (
        "strategy = VCCFirst\ncontroller.beacon_period = 0.7\ncontroller.timeout = 0.5\n"
        "vehicles.count = 3\n" + _SMALL
    ),
    "period_equals_timeout": (
        "strategy = VCCFirst\ncontroller.beacon_period = 0.5\ncontroller.timeout = 0.5\n"
        "vehicles.count = 10\n" + _SMALL
    ),
    "period_below_radio_leg": (
        "strategy = VCCFirst\ncontroller.beacon_period = 0.001\n"
        "vehicles.count = 8\nusers = 4\nduration = 2\nseed = 5\n"
    ),
    "slow_vehicles": "strategy = VCCFirst\nvehicles.capacity_mips = 500\n" + _SMALL,
    "long_lag": _LONG_LAG,
    "long_lag_partial": "scenario.preset = partial_coverage\n" + _LONG_LAG,
    # 3,000 records from 600 users on 964 vehicles: the user and vehicle id
    # columns outgrow a share's memo, which starts over (see the cli docstring).
    "memo_restart": "strategy = VCCFirst\nusers = 600\nduration = 1\nvehicles.count = 1000\n",
}

GOLDEN = {
    'ecfirst': ('279528c6b3cb70cc630ae6010aae267bccfcee7d3f2b40c8d080efeffea7bfd8', 'd42fb34b8dfec50026a981af9d977a975a51ba4a8dc0c61f46e9cb0926a4f281'),
    'vccfirst': ('2057a5e7d11046b24d963b693829ede86f2450876df7340f22041ce461ed68b6', '2898cc1cea0867047a4a4f555a08f39eb57da43435a2c9a3d5e60ca53e82540c'),
    'partial_90kmh_400': ('c626b18d23b8410a14e245a968dba7157ff8e797822a3b2ad1d91c8463f8d536', 'f3e45c5eb1aa8284a812b4b3188b54bd98cd09d4403f6eab26716a5d6fd094e2'),
    'partial_parked': ('c3a29eae3a12875d236589b67d7283cd66c868b62d9a390f5f430e73b3109fd4', 'b0edee9f367314bafb7b3a8f1b0085139f39c6810a20ab2f589e5346f4dcd72a'),
    'period_above_timeout': ('5aa3a415c6d5fe26a2077f30aad40314c55520331324209aacb28e1c2eb4dec9', 'e4b5c59ab95eaed499a512254e5859ad95407757074c43bc690ca1e3f72393e0'),
    'period_equals_timeout': ('81c902f833a44bdf189c8b11476653a529534bd44bcf9bb4d404ad9f7f2d0e2c', 'cfb5b89809aecc1e936060a68fb290643d97415b87008bd9a70a19c420832e20'),
    'period_below_radio_leg': ('2e3b66d0394a436ded5bdaeb1c9bba09ba42f55c2886e8ba79c62c03f99fe196', 'f02fd0f6264bbead514e98f1ca4f50ac2115b103ea7549f66b65ef810f50cdc9'),
    'slow_vehicles': ('0992aeec9531dd8ed63e773c2611dacf84caa5406045144ca988045b1923a26c', 'bd6b91ce39632fdd0c075d7d43c08fd9ee3f359cf53a79025a613df18f95aee5'),
    'long_lag': ('304296f5e1bf797a65e5695f4eac4c0bd433a71fa124dc70f7fc988312f4bf45', '9bb9587349cafb2d1612ca528d3d7b5a8d5c3519339a0641158ccb46c96375ad'),
    'long_lag_partial': ('53ce6d1a7636ff92d0feba42c710d1cc3690abeceb6fdab541cfb87820dc02cb', 'cc2ea5d0ff3fb09ea9fe8790c9191a1104adf3cbfefab74aca1656e592cbd589'),
    'memo_restart': ('e7992e3136b3fb758e431cd9818fa011e7580d01418a0fc7e3021890ff29b69f', '77ac6b932327828041690f4c8c92ba24554929b164b72d785be2349b8dc895e9'),
}

# `offloadsim cost` calls: (config text or None, its flags).
COST_CASES = {
    "cost_no_config": (None, []),
    "cost_defaults_cfg": (_DEFAULTS.read_text(encoding="utf-8"), []),
    "cost_years_no_bonus": (None, ["--years", "1,3,5", "--no-bonus-in-ec-requests"]),
    "cost_betas_scales": (None, ["--betas", "0,1e-6", "--scales", "1,0.01,0"]),
    "cost_free_edge": ("cost.c_ec_cpu = 0\ncost.c_ec_main = 0\ncost.c_ec_req = 0\n", []),  # nan percentages
    "cost_one_user": ("cost.users = 1\ncost.c_ec_req = 1e-5\n", ["--years", "5", "--scales", "0.01"]),
}

# name -> (CSV, summary printed with -o)
COST_GOLDEN = {
    'cost_no_config': ('a267a4ccbecf405beaa540cfb4ef95ac3e6c717f4086787a4af473e26a980e35', 'a1401906980c9a41b8cbaaa581685724ac0fbedbb1d045e07a49ccb8a30baece'),
    'cost_defaults_cfg': ('a267a4ccbecf405beaa540cfb4ef95ac3e6c717f4086787a4af473e26a980e35', 'a1401906980c9a41b8cbaaa581685724ac0fbedbb1d045e07a49ccb8a30baece'),
    'cost_years_no_bonus': ('1fad0292159e99836c7d6120e4da3f94517f036ff13f63cc561d139e46e37ac9', 'd12bbbeac94ed479d688938711eeda7252ce43a3ce7ae457a5f9178d27e9b98f'),
    'cost_betas_scales': ('4a96ce06d59756938472b4ee877b6fc3b8571c9cff344ea2c26e726865a26dda', 'd022be4f6b5e68745787cc846f4ebb4c9173ee6e0c61ef2a16c08ad5e2bbde1e'),
    'cost_free_edge': ('b1a479abbac715bd20e6809b28014e66e6d81766e137b29cb63dad4adea2b9ab', 'fb4f503b0e693c27d01df623ddc7672c34d0429ddd57caa3ca347240c90fee99'),
    'cost_one_user': ('616ee0d97ed44494a1d880a16d5a9429a0318062932e6ecf6fc1c488ba4a75ad', '837bbf20294581349fbd73e95601c156bd750c1dc4b1f7e0dc1e60a032087b56'),
}

# script name -> its standard output
DEMO_GOLDEN = {
    'capacity_and_speed_sweeps.py': '160748df03473b1ce48d26604a1d6d5ecafaf48edde713b2e203a1a5865dc310',
    'channel_model.py': '82e02002bf1f88f69e90615d53ed3ddec9bfaaa76dbd8ea154bcbda205e0b1ea',
    'cost_analysis.py': '72e5b87410af4400c1e746ab3d3549d0ee0f08131ca846e1c746f1415df0286d',
    'fleet_size_sweep.py': 'fec9daf4378f7f099ad1ded22ad0eb1db8c3a9e44bb0a0ef39736ff8953e8d05',
    'loop_and_coverage.py': 'a698465d3d5bcc5dfba4c2db104c0bad4262839f35cbd8502559c2874ef9c8a5',
    'partial_coverage_failures.py': 'f0de874bfc3b4a3d4fc4366d76d7c5e971801e5db2e5c52b83100c25a10466d0',
    'single_run_decomposition.py': '75bd56af684928d2d214675c434de74a75a34b78348c5bf45d01ccdb79303c87',
    'strategy_comparison.py': 'acb05027c919e71e2182c0f3e25bd99e44b4fd76a2912cb26d763ff4d44d1ed7',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CASES[name])
    agg, rec = tmp_path / f"{name}.agg.csv", tmp_path / f"{name}.rec.csv"
    assert main(["run", str(cfg), "-o", str(agg), "--records", str(rec)]) == 0
    return tuple(_sha(p.read_bytes()) for p in (agg, rec))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(tmp_path, name):
    assert digests(tmp_path, name) == GOLDEN[name]


def _cost_stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode()


def cost_digests(tmp_path, name):
    """(CSV, -o summary) digests of one cost case; the CSV is the same on stdout and in the file."""
    text, flags = COST_CASES[name]
    argv = ["cost", *flags]
    if text is not None:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        argv.insert(1, str(cfg))
    csv_out = tmp_path / f"{name}.cost.csv"
    on_stdout = _cost_stdout(argv)
    summary = _cost_stdout([*argv, "-o", str(csv_out)])
    assert csv_out.read_bytes() == on_stdout
    return _sha(on_stdout), _sha(summary)


def demo_digest(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(_DEMOS / script)], env=env, capture_output=True, check=True)
    return _sha(done.stdout)


@pytest.mark.parametrize("name", sorted(COST_CASES))
def test_cost_golden_digest(tmp_path, name):
    assert cost_digests(tmp_path, name) == COST_GOLDEN[name]


def test_every_demo_is_pinned():
    assert sorted(p.name for p in _DEMOS.glob("*.py")) == sorted(DEMO_GOLDEN)


@pytest.mark.parametrize("script", sorted(DEMO_GOLDEN))
def test_demo_stdout_digest(script):
    assert demo_digest(script) == DEMO_GOLDEN[script]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f"    {name!r}: {digests(Path(tmp), name)!r},", file=sys.stderr)
        for name in COST_CASES:
            print(f"    {name!r}: {cost_digests(Path(tmp), name)!r},", file=sys.stderr)
    for script in sorted(p.name for p in _DEMOS.glob("*.py")):
        print(f"    {script!r}: {demo_digest(script)!r},", file=sys.stderr)

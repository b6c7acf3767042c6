"""Golden output digests: `offloadsim run` bytes pinned for small configs.

Each case runs through ``main`` and pins the SHA-256 of the aggregates CSV and
of the ``--records`` CSV. The cases cover both strategies, both presets, fast,
slow and parked vehicles, and beacon periods below, equal to and above the
registry timeout. A change that moves any digest changes simulated behaviour
and must say so; ``PYTHONPATH=src python tests/test_golden.py`` prints the
new digests.
"""

import hashlib
import sys

import pytest

from offloadsim.cli import main

_SMALL = "users = 4\nduration = 6\nseed = 5\n"

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
}


def digests(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CASES[name])
    agg, rec = tmp_path / f"{name}.agg.csv", tmp_path / f"{name}.rec.csv"
    assert main(["run", str(cfg), "-o", str(agg), "--records", str(rec)]) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (agg, rec))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(tmp_path, name):
    assert digests(tmp_path, name) == GOLDEN[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            print(f"    {name!r}: {digests(pathlib.Path(tmp), name)!r},", file=sys.stderr)

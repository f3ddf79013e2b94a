"""Golden output: sha256 of the exact bytes of fixed CLI commands.

Each verify kind runs on seeds 1..20 (``--seed 1 --trials 20``) with
``--json``, plus one ramee replay.  The digests pin every output byte, so a
change to the arithmetic that alters a value, a canonical form or the
order of claims shows up here; a change that only makes the same bytes
faster leaves them alone.
"""

import hashlib

import pytest

from arguesia.cli import main

GOLDEN = {
    "verify menelaus": "77d94a5b7d05e11498faba640697061714e4fc04b5ec9773173beeabece2572e",
    "verify ramee": "8f2f422e4c5b340bd7538b913f50bd67b31cf2f5c4a875cf6ec5ead1d26b0fe0",
    "verify quadrangle": "a114eb285d0f5d180d70a7b6840d18122563bd18804e22c19776b1650c1f6dac",
    "verify pencil": "49a70241f8d2f320f99e42be00e671029682336d511100909db621d4a6335b5f",
    "verify pascal": "2d7e88aad8d0db9489745b331bf9d8034995a7e00c621c0adf853f50c21376b6",
    "verify beaugrand": "ac623e5b79538bcb58932417c1bd581f7d5fe1a98d2cfd93269cec906b48d443",
    "verify parallel-bornales": "c8e4d66f0e5300235e9496a2773a88378091e642814c98fb0a61cff33e79df7c",
    "verify midpoint": "51125153deb241fab7340893d42eb2e82245a4cfc90a38ab52d029e12c7c672c",
    "verify bisector": "52407f7d74df02be0f72b2be4473cbd6118ac0b0c80461e3c460c30234f36cdb",
    "verify retablissement": "cba4a06cf49d14a31c57190ab66d63922c1d466da2e9e0b2d3414ba4e6a5bc72",
    "replay ramee": "693f2407d6a8e803ec8d7e01b17daa84f99c61341e5e2b98e3aac35c034ac1e2",
}


def _command(name: str) -> list[str]:
    command, kind = name.split(" ")
    if command == "verify":
        return ["verify", kind, "--seed", "1", "--trials", "20", "--json"]
    return ["replay", kind, "--seed", "1", "--json"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, capsys):
    assert main(_command(name)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]

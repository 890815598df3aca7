"""Golden sha256 digests of every differential on the desk grid.

Each digest hashes the `ExactMatrix.dump()` text of a complex's
differentials in order, the function complex's as `build_function_complex`
returns them.  They were taken before the integer-only rewrite of `homalg`
and must never change: the matrices are reproducible bit for bit across
refactors of the builders, the matrix class and its storage, and its dump.
"""

import hashlib

import pytest

from drincoh.gmodules import lattice_complex
from drincoh.orlik import build_function_complex
from drincoh.rootdata import subsets_of_size

GOLDEN = {
    ("steinberg", 1, 2): "43f2523dd544d5e0a3d84d617ab19ec59d01d090956bbe6c403ed78e1afa5878",
    ("steinberg", 1, 3): "32a9ee69f79b85f19123284c1a47bf25c8e9efc9851881fb341764c9e466248e",
    ("steinberg", 2, 2): "ab03e83cd178b4ae34836c8adff19599afc436c4a1a6759964be843fbe4bc763",
    ("steinberg", 2, 3): "c5ef41c91b0e3222b002879e3fad775333e8d27972ec0311c88d0536197f0440",
    ("steinberg", 3, 2): "3567b76201ea801158617cccbb1c3b85f9a49898642466ec697912ff25566676",
    ("steinberg", 3, 3): "52b068a17dea9956d8baa2d5d2d5919915913a8342f403b43a6ee041906d6437",
    ("orlik", 1, 2, 1): "2c6f3a829f55408d60db3c63fc393de21fbdc4298cf53f3ad7cb98dc88b299d0",
    ("orlik", 1, 2, 2): "2c6f3a829f55408d60db3c63fc393de21fbdc4298cf53f3ad7cb98dc88b299d0",
    ("orlik", 1, 3, 1): "cad0e27d4391af4c52b0a2b50ef38ac7e4a8995ec168e86d7705205725263941",
    ("orlik", 1, 3, 2): "cad0e27d4391af4c52b0a2b50ef38ac7e4a8995ec168e86d7705205725263941",
    ("orlik", 2, 2, 1): "1b9733ee8edab40a5d8aa6bf1cb6304493024b1c374b5ecc888b9428f7c1b289",
    ("orlik", 2, 2, 2): "c13a8953d82c1ccd9a91eee763d7ceb39aca14a3fa44b8e9fd645948d3a72411",
    ("orlik", 2, 3, 1): "f0366a71d827757188cdc2921faa448da4f5f61cf934d7333b94c93c3cbbc3a0",
    ("orlik", 2, 3, 2): "b0a9d8847a7cc54022923ca431fc688e3cd3815c4a8a1deab0dcbe7824f71236",
    ("orlik", 3, 2, 1): "252842eb6dc97d92eeb19570b51afe80e77f9fe87ec0575470130e734267518b",
    ("orlik", 3, 2, 2): "dbb21a9c03c5fbdf2928319081f34931b43e0d0f6815381bb13f8baaab2197c1",
    ("orlik", 3, 3, 1): "4617561001bb28d621940efcc4a0e6ea72b0fc8f2e9c2a51acc211b4ca226cc1",
    ("orlik", 3, 3, 2): "7c9913aeb97c63e270a367f3e0f875e27b35a07ae8f8d24866a81331e0a96b7f",
}


def _digest(diffs) -> str:
    h = hashlib.sha256()
    for d in diffs:
        h.update(d.dump().encode())
    return h.hexdigest()


def _differentials(key):
    if key[0] == "steinberg":
        _, n, q = key
        return [
            d
            for c in range(n)
            for J in subsets_of_size(n, c, proper=True)
            for d in lattice_complex(J, q)[1].diffs
        ]
    _, n, q, m = key
    return build_function_complex(n, q, m).diffs


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_differential_dumps_match_golden_digest(key):
    assert _digest(_differentials(key)) == GOLDEN[key], key

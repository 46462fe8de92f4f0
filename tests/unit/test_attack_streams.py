"""Pins the exact line stream of every attack constructor.

For each constructor at its default arguments, the full SHA-256 of the
line array's bytes together with its dtype, the trace name, seed and
instruction count.  Coffee Lake and Rubix-S (GS4) cover a linear and a
randomized mapping on the baseline geometry; the blind probe needs no
mapping.  Any change to how a constructor builds its lines -- order,
phase, dtype, seed consumption -- changes a digest here.
"""

import hashlib

import pytest

from repro.core.rubix_s import RubixSMapping
from repro.dram.config import baseline_config
from repro.mapping.intel import CoffeeLakeMapping
from repro.workloads.attacks import (
    blacksmith_attack,
    blind_adjacency_attack,
    double_sided_attack,
    half_double_attack,
    many_sided_attack,
    single_sided_attack,
)

CONSTRUCTORS = {
    "single": single_sided_attack,
    "double": double_sided_attack,
    "half_double": half_double_attack,
    "many_sided": many_sided_attack,
    "blacksmith": blacksmith_attack,
}

#: (name, seed, instructions) per constructor; the same on every mapping.
SHAPES = {
    "single": ("attack-single-sided", None, 8000),
    "double": ("attack-double-sided", None, 8000),
    "half_double": ("attack-half-double", None, 80000),
    "many_sided": ("attack-10-sided", None, 10000),
    "blacksmith": ("attack-blacksmith", 181, 12000),
}

DIGESTS = {
    "coffeelake": {
        "single": "62d75306bef00c82197add099b7e553a4ac40684efd85ce6e34ec2e60d701652",
        "double": "10e15b88b2425eae9eb4e0aeeb954e41d0f94249064dfd8f7d3dc25aa0b77606",
        "half_double": "ca744ff1b6893286c0bf7b61b60111ef066bea7741404055e9cea4d8708d3a63",
        "many_sided": "203d2ab8a7d0aa4cde86f28f563af018d350279bcdd9a71e770b8b741ede7fb4",
        "blacksmith": "0617772da8b3ee3073481ce3b453cf82b67d884d7cbeb02c90cb0251ff10d072",
    },
    "rubix_s_gs4": {
        "single": "c3076420d416df6f3bfea31f8efd9a6f22dba46fcb0bb94b078eabf78b0f1fc4",
        "double": "d5dc4c1dfc17e144996650eb617d888c00f6d60b0734dd902070aefeee25544d",
        "half_double": "7a2bde07fe76fc4df8a87e5c237db0ea659538f9e5236a8f6aee321332d9bbe5",
        "many_sided": "7c8d356d91e98c0abd8a51b6e40666a0495a51d7742bc68bafe5264e18a1ed79",
        "blacksmith": "6b1584980116fe0fde505fbef51d1334d85f1abbdbe6161740f8bedc36112eb7",
    },
}
BLIND_DIGEST = "2f398ac91269850c5f424e2e7dca9dee151785ba46b3c38793f77b74e47abee1"


@pytest.fixture(scope="module")
def mappings():
    config = baseline_config()
    return {
        "coffeelake": CoffeeLakeMapping(config),
        "rubix_s_gs4": RubixSMapping(config, gang_size=4),
    }


def digest(trace):
    return hashlib.sha256(trace.lines.tobytes()).hexdigest()


@pytest.mark.parametrize("mapping_name", sorted(DIGESTS))
@pytest.mark.parametrize("attack", sorted(CONSTRUCTORS))
def test_default_stream(mappings, mapping_name, attack):
    trace = CONSTRUCTORS[attack](mappings[mapping_name])
    name, seed, instructions = SHAPES[attack]
    assert trace.lines.dtype == "uint32"
    assert (trace.name, trace.seed, trace.instructions) == (name, seed, instructions)
    assert digest(trace) == DIGESTS[mapping_name][attack]


def test_blind_stream():
    trace = blind_adjacency_attack()
    assert trace.lines.dtype == "uint32"
    assert (trace.name, trace.seed, trace.instructions) == ("attack-blind", None, 80000)
    assert digest(trace) == BLIND_DIGEST

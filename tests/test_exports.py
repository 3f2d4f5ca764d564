"""The public surface stays in sync with the code behind it.

Every ``repro.*`` module's ``__all__`` must name objects that exist
(a stale entry breaks ``from module import *``), and the CLI must offer
exactly the subcommands listed here.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil

import repro
from repro.cli import build_parser

MODULES = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))

SUBCOMMANDS = {
    "bench", "bottleneck", "cache", "compare", "components", "energy",
    "estimate", "evaluate", "floorplan", "hotspot", "plan", "profile",
    "report", "reproduce", "runs", "simulate", "sweep", "table", "trace",
    "validate", "workloads",
}


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{item}" for item in getattr(module, "__all__", ())
                    if not hasattr(module, item)]
    assert not missing, f"__all__ names missing objects: {missing}"


def test_cli_offers_exactly_the_known_subcommands():
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(subparsers.choices) == SUBCOMMANDS

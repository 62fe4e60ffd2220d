"""The benchmark's trace targets exist in the package."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


def test_every_traced_target_resolves():
    # The traced run looks each target up in its owner's vars(); a name
    # deleted from the package would stop it with a KeyError.
    for module_name, path, _ in _traced():
        owner = importlib.import_module(f"cmc_elliptic.{module_name}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module_name}.{path}"

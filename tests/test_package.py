import subprocess
import sys
from pathlib import Path

import evidem

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    assert [name for name in evidem.__all__ if not hasattr(evidem, name)] == []


def test_cli_loads_no_third_party_module_but_numpy_and_pyyaml():
    # a fresh interpreter, so that what the test suite has imported does not count
    code = (
        "import importlib.metadata, sys\n"
        "before = set(sys.modules)\n"
        "import evidem.cli\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "owners = importlib.metadata.packages_distributions()\n"
        "print(' '.join(sorted({d.lower() for top in tops for d in owners.get(top, [])})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60, check=True
    )
    assert set(done.stdout.split()) - {"evidem"} == {"numpy", "pyyaml"}

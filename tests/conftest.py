import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# pytest puts src on sys.path (pyproject.toml); the CLI tests' child
# interpreters find bagdb there through PYTHONPATH
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

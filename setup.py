"""Package metadata and legacy-install shim.

The execution environment has no network access and lacks the ``wheel``
package, so PEP-660 editable installs fail; keeping a ``setup.py`` lets
``pip install -e .`` fall back to the legacy ``setup.py develop`` path.
There is no ``pyproject.toml`` in this repository, so all metadata lives
here.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="repro-s2c2",
    version=_VERSION,
    description=(
        "Reproduction of S2C2 — Slack Squeeze Coded Computing for Adaptive "
        "Straggler Mitigation (Narra et al., SC '19): coded-computation "
        "simulators, speed prediction, and a batched parallel experiment "
        "engine for all 13 figure experiments"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text()
    if (Path(__file__).parent / "README.md").exists()
    else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    # networkx builds the apps' graphs; SciPy is needed only by the tests.
    install_requires=["numpy>=1.22", "networkx"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["repro = repro.__main__:main"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
)

"""Package definition (the repository has no ``pyproject.toml``).

Install editable from the repository root::

    pip install -e . --no-build-isolation

Add ``--no-use-pep517`` on offline boxes whose setuptools/pip lack
PEP-660 editable-wheel support (e.g. no ``wheel`` package installed).
numpy is the only runtime dependency; scipy is needed only to build
the PSIA workload (``pip install -e .[psia]``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"psia": ["scipy"]},
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-serve=repro.service.server:main",
        ],
    },
)

"""Package metadata for the conf_podc_SeversonHD19 reproduction.

Kept as a plain ``setup.py`` so editable installs work without network access
or the wheel package; ``pip install -e .`` or ``PYTHONPATH=src`` both work.
"""

from setuptools import find_packages, setup

setup(
    name="repro-composable-crn",
    # Kept in sync with repro.__version__ (tests/test_api_workbench.py enforces it).
    version="1.11.0",
    description=(
        "Reproduction of 'Composable computation in discrete chemical reaction "
        "networks' (PODC 2019): superadditivity characterization, CRN "
        "constructions, verification harness, a unified scalar simulation "
        "kernel with dependency-graph propensity updates, a vectorized batch "
        "simulation engine, and the repro.api workbench facade with a "
        "pluggable engine registry."
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        # Load-bearing for repro.geometry.cones and the repro.sim.engine
        # batch simulators.
        "numpy>=1.22",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)

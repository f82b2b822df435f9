"""Setuptools shim.

This file is the package's only metadata (there is no pyproject.toml), kept
as a plain ``setup()`` call so the package also installs in environments
whose setuptools predates PEP 660 editable wheels (``python setup.py
develop`` / offline CI images without the ``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "FedTrip: resource-efficient federated learning with triplet "
        "regularization (full reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
)

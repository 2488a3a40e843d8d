"""Package metadata for the NVMExplorer reproduction.

PEP 660 editable installs need ``bdist_wheel`` from the ``wheel`` package.
Keeping the metadata in setup.py lets ``pip install -e .
--no-use-pep517 --no-build-isolation`` (and plain ``python setup.py
develop``) work offline where ``wheel`` is missing.  numpy is the only
runtime dependency.
"""

from setuptools import find_packages, setup

setup(
    name="nvmexplorer-repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.dnn": ["*.npz"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)

"""Setuptools stub; it declares no package metadata beyond its extras.

The supported way to run the project is from a checkout with
``PYTHONPATH=src``.  Runtime dependencies: numpy and scipy (torch optional);
scipy is used only for ``scipy.sparse`` in ``NumpyBackend.segment_sum``.
The ``test`` extra lists what the test suite needs on top of them.
"""

from setuptools import setup

setup(extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]})

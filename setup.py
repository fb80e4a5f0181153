"""Setuptools stub; it declares no package metadata beyond its extras.

The supported way to run the project is from a checkout with
``PYTHONPATH=src``.  Runtime dependencies: numpy and scipy.  scipy is used
only for ``scipy.sparse``, which ``NumpyBackend.segment_sum`` (the ``sgm``
update) imports on first use, so ``import repro`` loads only numpy (about
0.26 s under ``python -X importtime``).
The ``test`` extra lists what the test suite needs on top of them.
"""

from setuptools import setup

setup(extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]})

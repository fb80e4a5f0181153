"""Setuptools stub; it declares no package metadata.

The supported way to run the project is from a checkout with
``PYTHONPATH=src``.  Runtime dependencies: numpy and scipy (torch optional).
"""

from setuptools import setup

setup()

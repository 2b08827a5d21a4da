"""Hybrid LiFi/femtocell network simulator and RF/optical link analysis toolkit."""

__version__ = "0.2.0"

CSV_SCHEMA_VERSION = 2

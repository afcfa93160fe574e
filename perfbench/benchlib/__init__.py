"""Building blocks of the OPAQUE serving benchmark (see ``perfbench/README.md``)."""

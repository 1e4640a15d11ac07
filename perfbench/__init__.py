"""Season-scale end-to-end benchmark of the wildfire service (see README.md)."""

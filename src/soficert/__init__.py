"""Exact sofic-approximation certificates for free-group actions."""

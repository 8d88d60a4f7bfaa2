"""802.11 EDCA channel-access simulator with adaptive contention-window control."""

__version__ = "0.1.0"

"""Logging configuration for the ``repro`` logger hierarchy.

Library code never prints: examples, benchmarks and the CLI log through
children of the root ``repro`` logger (``repro.examples.quickstart``,
``repro.benchmarks.autoscale``, ``repro.cluster`` …) and a single
:func:`configure_logging` call — driven by the ``--log-level`` flag —
decides what is shown.  The CLI's results tables remain plain ``print``
output (they *are* the program's product); everything else — example and
benchmark progress, tables, diagnostics — goes through the logger.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["configure_logging", "LOG_LEVELS"]

LOG_LEVELS = ("debug", "info", "warning", "error")

_HANDLER_FLAG = "_repro_handler"


def configure_logging(level: str = "info", stream=None) -> logging.Logger:
    """Configure the root ``repro`` logger and return it.

    Idempotent: repeated calls adjust the level and the stream but never
    stack handlers, so tests and long-lived processes can reconfigure
    freely.  The handler writes bare messages to ``stream`` (default the
    ``sys.stdout`` of this call, matching the CLI's table output) and the
    logger does not propagate, keeping host applications' logging
    untouched.
    """
    if level not in LOG_LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from {LOG_LEVELS}")
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level.upper()))
    logger.propagate = False
    for handler in logger.handlers:
        if getattr(handler, _HANDLER_FLAG, False):
            break
    else:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        setattr(handler, _HANDLER_FLAG, True)
        logger.addHandler(handler)
    # Assigned rather than setStream(), which flushes the old stream first;
    # that stream may be closed by now, and the handler flushes every record.
    handler.stream = stream if stream is not None else sys.stdout
    return logger

"""The ``repro.*`` logger hierarchy and the ``REPRO_LOG`` toggle.

Every engine diagnostic (promotion-retry notices,
kernel-degradation records, corruption detections) routes through a
namespaced ``logging.getLogger("repro.<area>")`` logger obtained via
:func:`get_logger` — so embedding applications control engine noise
with the standard ``logging`` machinery, per subsystem.

By default the hierarchy stays silent (the root ``repro`` logger gets
a :class:`logging.NullHandler`, nothing propagates surprises to a
bare root logger).  Setting the ``REPRO_LOG`` environment variable
attaches a stderr handler at the named level::

    REPRO_LOG=debug   python -m repro db query ...   # everything
    REPRO_LOG=warning python app.py                  # notices only

The value is a standard level name (``debug`` / ``info`` / ``warning``
/ ``error`` / ``critical``), case-insensitive; unknown values fall
back to ``info``.  Configuration happens once, on the first
:func:`get_logger` call (or explicitly via
:func:`configure_from_env`); applications that configured ``logging``
themselves are left alone — the env handler is only ever added to the
``repro`` logger, never to the root.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional

__all__ = ["get_logger", "configure_from_env"]

ROOT_LOGGER_NAME = "repro"
ENV_VAR = "REPRO_LOG"

_configured = False


def configure_from_env(value: Optional[str] = None) -> logging.Logger:
    """Apply the ``REPRO_LOG`` policy to the ``repro`` logger (once).

    ``value`` overrides the environment (tests); passing it re-applies
    even if configuration already ran.  Returns the root ``repro``
    logger.
    """
    global _configured
    root = logging.getLogger(ROOT_LOGGER_NAME)
    if _configured and value is None:
        return root
    _configured = True
    if value is None:
        value = os.environ.get(ENV_VAR)
    if not root.handlers:
        # Silence-by-default: without a NullHandler, a warning-level
        # record would trigger logging's "no handlers" lastResort
        # stderr path even when the embedder never opted in.
        root.addHandler(logging.NullHandler())
    if not value:
        return root
    level = getattr(logging, value.strip().upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    handler.setLevel(level)
    root.addHandler(handler)
    root.setLevel(level)
    return root


def get_logger(area: str) -> logging.Logger:
    """The ``repro.<area>`` logger (``repro.storage``, ``repro.core``,
    ...), with the ``REPRO_LOG`` policy applied on first use.  Passing
    a name already under ``repro`` uses it as-is."""
    configure_from_env()
    if area == ROOT_LOGGER_NAME or area.startswith(
        ROOT_LOGGER_NAME + "."
    ):
        name = area
    else:
        name = f"{ROOT_LOGGER_NAME}.{area}"
    return logging.getLogger(name)

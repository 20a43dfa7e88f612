"""Import surface of the discrete-event simulation kernel.

The implementation lives in :mod:`repro.kernelcore.eventcore` (the
standing benchmark binds ``Simulator`` there by path); import the
classes from here.
"""

from __future__ import annotations

from repro.kernelcore.eventcore import DeliveryChooser, ScheduledEvent, Simulator

__all__ = ["DeliveryChooser", "Simulator", "ScheduledEvent"]

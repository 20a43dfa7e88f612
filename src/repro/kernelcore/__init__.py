"""Home of :mod:`repro.kernelcore.eventcore`, the simulation kernel.

A package of one module because the standing benchmark binds
``repro.kernelcore.eventcore.Simulator`` by path; everything else
imports the kernel through :mod:`repro.sim.kernel`.
"""

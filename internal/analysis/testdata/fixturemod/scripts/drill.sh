#!/bin/sh
# Fixture drill: the arm counts as crash-early's exercise.
GPUSIMPOW_FAULTPOINT=crash-early:skip=2 ./daemon

/// \file flow_engine.hpp
/// \brief Public surface: the Table-I flow engine.
///
/// `t1map::t1::FlowEngine` executes the fixed Table-I `Pipeline` of `Pass`
/// objects with reusable scratch state, per-pass timings, structured
/// `Diagnostics`, and deterministic batched execution (`run_many`).  This
/// is the embedding point for services that map many circuits.

#pragma once

#include "t1/flow_engine.hpp"

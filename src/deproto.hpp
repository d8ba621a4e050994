#pragma once

// Umbrella header: the full public surface of the deproto library, in layer
// order. Downstream consumers can `#include "deproto.hpp"` and reach every
// layer; tests/build/umbrella_header_test.cpp keeps this list honest.

// ode: polynomial differential equation systems and their taxonomy
#include "ode/term.hpp"
#include "ode/polynomial.hpp"
#include "ode/equation_system.hpp"
#include "ode/parser.hpp"
#include "ode/rewriting.hpp"
#include "ode/taxonomy.hpp"
#include "ode/catalog.hpp"

// numerics: integration, linearization, and stability analysis
#include "numerics/vector.hpp"
#include "numerics/matrix.hpp"
#include "numerics/eigen.hpp"
#include "numerics/jacobian.hpp"
#include "numerics/newton.hpp"
#include "numerics/integrator.hpp"
#include "numerics/linearization.hpp"
#include "numerics/stability.hpp"
#include "numerics/lyapunov.hpp"
#include "numerics/phase_portrait.hpp"

// core: the equation -> state machine synthesis mapping
#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "core/transition_model.hpp"
#include "core/synthesis.hpp"
#include "core/mean_field.hpp"
#include "core/closed_form.hpp"
#include "core/failure_compensation.hpp"
#include "core/fluctuations.hpp"

// protocols: the non-ODE baselines the case studies are compared against
// (the case studies themselves are synthesized by core)
#include "protocols/baselines.hpp"

// sim: synchronous, event-driven, and count-based simulation behind one
// interface
#include "sim/rng.hpp"
#include "sim/protocol.hpp"
#include "sim/group.hpp"
#include "sim/network.hpp"
#include "sim/metrics.hpp"
#include "sim/churn.hpp"
#include "sim/fault_plan.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/sync_sim.hpp"
#include "sim/event_sim.hpp"
#include "sim/count_period.hpp"
#include "sim/count_sim.hpp"
#include "sim/runtime.hpp"

// net: the real-network runtime -- protocols over UDP loopback sockets
#include "net/packet.hpp"
#include "net/socket.hpp"
#include "net/net_sim.hpp"

// api: the declarative experiment facade over the whole pipeline
#include "api/json.hpp"
#include "api/spec.hpp"
#include "api/experiment.hpp"
#include "api/job_metrics.hpp"
#include "api/result_cache.hpp"
#include "api/sweep.hpp"
#include "api/suite_runner.hpp"
#include "api/registry.hpp"

// analysis: the static protocol verifier -- lint machines and specs
// without running a period
#include "analysis/report.hpp"
#include "analysis/machine_checks.hpp"
#include "analysis/exact_chain.hpp"
#include "analysis/exact_checks.hpp"
#include "analysis/verifier.hpp"

// dist: the frame codec (length-prefixed JSON frames) deproto-bench times
#include "dist/wire.hpp"

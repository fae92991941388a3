#pragma once

/// Umbrella header for the minimpi runtime: a from-scratch, thread-per-rank
/// MPI-like library with a simulated multi-node cluster and a deterministic
/// virtual-time (Hockney/LogGP) performance model. See DESIGN.md.

#include "minimpi/cart.h"
#include "minimpi/cluster.h"
#include "minimpi/coll.h"
#include "minimpi/comm.h"
#include "minimpi/context.h"
#include "minimpi/datatype.h"
#include "minimpi/error.h"
#include "minimpi/icoll.h"
#include "minimpi/netmodel.h"
#include "minimpi/p2p.h"
#include "minimpi/request.h"
#include "minimpi/runtime.h"
#include "minimpi/types.h"
#include "minimpi/win.h"

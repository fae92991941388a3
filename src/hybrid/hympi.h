#pragma once

/// Umbrella header for hympi — the hybrid MPI+MPI collectives library
/// reproducing Zhou, Gracia & Schneider (ICPP '19). See DESIGN.md.

#include "hybrid/hier_comm.h"
#include "hybrid/hy_allgather.h"
#include "hybrid/hy_batch.h"
#include "hybrid/hy_bcast.h"
#include "hybrid/halo.h"
#include "hybrid/hy_extra.h"
#include "hybrid/recover.h"
#include "hybrid/round.h"
#include "hybrid/shared_buffer.h"
#include "hybrid/sync.h"

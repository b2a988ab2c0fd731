#pragma once
// Umbrella header for the serving subsystem:
//   request.hpp       — Request / Response / RequestData
//   request_queue.hpp — bounded queue with backpressure and deadlines
//   batcher.hpp       — BatchPolicy / DynamicBatcher
//   server.hpp        — Server (worker pool) + ServerConfig
//   server_stats.hpp  — ServerStats / StatsSnapshot

#include "serve/batcher.hpp"
#include "serve/request.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "serve/server_stats.hpp"

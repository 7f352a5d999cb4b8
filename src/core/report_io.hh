/**
 * @file
 * Run-report serialization: JSON (one report) and CSV (a matrix of
 * reports) exporters so bench results can feed external plotting
 * pipelines without scraping the text tables.
 */

#ifndef ADYNA_CORE_REPORT_IO_HH
#define ADYNA_CORE_REPORT_IO_HH

#include <string>
#include <vector>

#include "core/system.hh"

namespace adyna::core {

/**
 * Serialize one report as a JSON object. Includes scalar metrics and
 * the energy breakdown; per-batch series are included only when
 * @p include_batches is set.
 */
std::string toJson(const RunReport &report,
                   bool include_batches = false);

/** Serialize several reports as a JSON array. */
std::string toJson(const std::vector<RunReport> &reports,
                   bool include_batches = false);

/** CSV header matching toCsvRow(). */
std::string csvHeader();

/** One CSV row of scalar metrics. */
std::string toCsvRow(const RunReport &report);

/** Full CSV document (header + one row per report). */
std::string toCsv(const std::vector<RunReport> &reports);

} // namespace adyna::core

#endif // ADYNA_CORE_REPORT_IO_HH

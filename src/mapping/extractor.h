// Parameter-to-variable mapping extraction: the three template toolkits.
//
// Given the annotations (annotations.h) and a lowered module, extraction
// produces one MappedParam per configuration parameter: its name, how it is
// mapped (Table 1's conventions), and the data-flow seeds the inference
// engines start from.
#ifndef SPEX_MAPPING_EXTRACTOR_H_
#define SPEX_MAPPING_EXTRACTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/apidb/api_registry.h"
#include "src/ir/ir.h"
#include "src/mapping/annotations.h"

namespace spex {

enum class MappingStyle { kStructureDirect, kStructureFunction, kComparison, kContainer };

const char* MappingStyleName(MappingStyle style);

struct MappedParam {
  std::string name;
  MappingStyle style = MappingStyle::kStructureDirect;
  DataflowSeeds seeds;
  // Direct storage global (structure-direct mapping only).
  const GlobalVariable* storage = nullptr;
  // Declared range from the mapping table, when the table carries min/max
  // fields (the PostgreSQL/MySQL/Storage-A practice from Section 5.2).
  std::optional<int64_t> table_min;
  std::optional<int64_t> table_max;
  SourceLoc loc;
};

class MappingExtractor {
 public:
  MappingExtractor(const Module& module, const AnalysisContext& context,
                   const ApiRegistry& apis)
      : module_(module), context_(context), apis_(apis) {}

  // Runs every annotation's toolkit; mappings are returned sorted by
  // parameter name, duplicates (same name from hybrid conventions) merged.
  std::vector<MappedParam> Extract(const AnnotationFile& file, DiagnosticEngine* diags);

 private:
  void ExtractStructDirect(const MappingAnnotation& annotation,
                           std::vector<MappedParam>* out, DiagnosticEngine* diags);
  void ExtractStructFunction(const MappingAnnotation& annotation,
                             std::vector<MappedParam>* out, DiagnosticEngine* diags);
  void ExtractComparison(const MappingAnnotation& annotation, std::vector<MappedParam>* out,
                         DiagnosticEngine* diags);
  void ExtractContainer(const MappingAnnotation& annotation, std::vector<MappedParam>* out,
                        DiagnosticEngine* diags);

  // The alloca backing argument `arg_index` (lowering stores every argument
  // into a named slot in the entry block).
  const Instruction* FindArgSlot(const Function& fn, int arg_index) const;
  // All loads realizing an annotated arg reference (`arg0`, `arg0[1]`).
  std::vector<const Value*> FindArgRefLoads(const Function& fn, const ArgRef& ref) const;

  const Module& module_;
  const AnalysisContext& context_;
  const ApiRegistry& apis_;
};

}  // namespace spex

#endif  // SPEX_MAPPING_EXTRACTOR_H_

#include "src/matrix/version_set.h"

#include "src/api/session.h"
#include "src/corpus/spec.h"

namespace spex {

Status ValidateVersion(const TargetVersion& version) {
  const bool has_corpus = !version.corpus.empty();
  const bool has_source = !version.source.empty();
  if (has_corpus == has_source) {
    return Status::InvalidArgument(
        has_corpus ? "version '" + version.label +
                         "' sets both a corpus name and a source; pick one"
                   : "version '" + version.label +
                         "' names neither a corpus target nor a source");
  }
  if (has_corpus && LookupTarget(version.corpus) == nullptr) {
    return Status::NotFound("unknown corpus target '" + version.corpus + "'");
  }
  return Status::Ok();
}

std::vector<LoadedVersion> LoadVersionSet(Session& session,
                                          std::span<const TargetVersion> versions,
                                          std::shared_ptr<VerdictStore> store) {
  std::vector<LoadedVersion> loaded;
  loaded.reserve(versions.size());
  for (size_t i = 0; i < versions.size(); ++i) {
    const TargetVersion& version = versions[i];
    LoadedVersion entry;
    entry.index = i;
    entry.label = !version.label.empty()
                      ? version.label
                      : (!version.corpus.empty() ? version.corpus
                                                 : "v" + std::to_string(i + 1));
    entry.status = ValidateVersion(version);
    if (entry.status.ok()) {
      // Session loads contain failures per call (diagnostics accumulate,
      // later loads are unaffected), so a broken version cannot poison
      // the columns after it.
      entry.target =
          !version.corpus.empty()
              ? session.LoadTarget(version.corpus)
              : session.LoadSource(version.source, version.annotations,
                                   version.file_name, version.dialect, version.sut,
                                   version.template_config);
      if (entry.target == nullptr) {
        entry.status = Status::Internal("loading version '" + entry.label +
                                        "' failed:\n" + session.RenderDiagnostics());
      } else if (store != nullptr) {
        // One shared store handle; the Target derives its own scope
        // fingerprint, so every version reads and writes its own column.
        entry.target->AttachVerdictStore(store);
      }
    }
    loaded.push_back(std::move(entry));
  }
  return loaded;
}

}  // namespace spex

fn main() -> std::process::ExitCode {
    orochi_benchmark::cli::main()
}
